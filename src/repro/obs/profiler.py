"""The shard-level profiler: typed timeline events + metrics.

Legion-Prof-shaped observability for the reproduction (ROADMAP:
"observability: tracing, metrics, profiling hooks").  A :class:`Profiler`
records two kinds of data:

* **timeline events** — spans (begin/end or pre-timed "complete" events)
  and instants, each tagged with a shard, a category and a name from
  :mod:`repro.obs.events`;
* **metrics** — hierarchical counters/gauges in a
  :class:`~repro.obs.metrics.MetricsRegistry`.

Zero-perturbation contract
--------------------------
Instrumented hot paths hold a reference to a profiler and guard every
emission with a single attribute check::

    prof = self.profiler
    if prof.enabled:
        ...

When disabled (the default) the profiler records nothing, allocates
nothing, and — crucially — is never consulted by any *decision* the
analysis makes, so profiling on vs off yields byte-identical task graphs,
determinism hashes and fence/elision counts.  ``tests/obs/
test_zero_perturbation.py`` holds this as a Hypothesis property and
``tests/perf/test_profiler_overhead.py`` bounds the disabled-path cost.

Clocks
------
Timestamps are microseconds from :meth:`enable` by default (wall clock via
``time.perf_counter``).  :meth:`set_clock` injects another clock, e.g. a
fake one in tests.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

__all__ = ["Profiler", "TimelineEvent", "get_profiler", "set_profiler",
           "profiled"]

#: Event record: (ph, shard, cat, name, ts_us, dur_us, args).
#: ``ph`` follows the Chrome trace-event phase letters: "X" complete,
#: "B"/"E" span begin/end, "i" instant.  ``dur_us`` is None except for "X".
TimelineEvent = Tuple[str, int, str, str, float, Optional[float],
                      Optional[Dict[str, Any]]]

_FORMAT_VERSION = 1


class Profiler:
    """Recorder of per-shard timeline events and metrics."""

    __slots__ = ("enabled", "events", "metrics", "_clock", "_origin")

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self.events: List[TimelineEvent] = []
        self.metrics = MetricsRegistry()
        self._clock: Callable[[], float] = clock or time.perf_counter
        self._origin = self._clock()

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> "Profiler":
        """Turn recording on; rebases the time origin to 'now'. Chainable."""
        if not self.events:
            self._origin = self._clock()
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        self.enabled = False
        return self

    def clear(self) -> None:
        self.events.clear()
        self.metrics.clear()
        self._origin = self._clock()

    def set_clock(self, clock: Callable[[], float],
                  origin: float = 0.0) -> None:
        """Use ``clock`` (seconds) for timestamps — e.g. a fake clock.

        ``origin`` is subtracted so profiles start at t=0 by default
        regardless of where the injected clock stands.
        """
        self._clock = clock
        self._origin = origin

    # -- time ---------------------------------------------------------------

    def now_us(self) -> float:
        """Current timestamp in microseconds since the profile origin."""
        return (self._clock() - self._origin) * 1e6

    # -- timeline emission (call only under an ``enabled`` guard) -----------

    def begin(self, shard: int, cat: str, name: str,
              ts: Optional[float] = None, **args: Any) -> None:
        self.events.append(("B", shard, cat, name,
                            self.now_us() if ts is None else ts,
                            None, args or None))

    def end(self, shard: int, cat: str, name: str,
            ts: Optional[float] = None) -> None:
        self.events.append(("E", shard, cat, name,
                            self.now_us() if ts is None else ts,
                            None, None))

    def complete(self, shard: int, cat: str, name: str, ts: float,
                 dur: float, **args: Any) -> None:
        """A pre-timed span: ``ts``/``dur`` in microseconds."""
        self.events.append(("X", shard, cat, name, ts, max(dur, 0.0),
                            args or None))

    def instant(self, shard: int, cat: str, name: str,
                ts: Optional[float] = None, **args: Any) -> None:
        self.events.append(("i", shard, cat, name,
                            self.now_us() if ts is None else ts,
                            None, args or None))

    # -- metrics convenience -------------------------------------------------

    def count(self, name: str, delta: float = 1) -> None:
        self.metrics.count(name, delta)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    # -- introspection -------------------------------------------------------

    def shards(self) -> List[int]:
        """Shards (incl. the control pseudo-shard) that emitted events."""
        return sorted({e[1] for e in self.events})

    def events_for(self, shard: int) -> List[TimelineEvent]:
        return [e for e in self.events if e[1] == shard]

    # -- (de)serialization ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The profile as one JSON-safe dict (the ``run.trace.json`` form)."""
        return {
            "format": "repro-profile",
            "version": _FORMAT_VERSION,
            "events": [
                {"ph": ph, "shard": shard, "cat": cat, "name": name,
                 "ts": ts, **({"dur": dur} if dur is not None else {}),
                 **({"args": args} if args else {})}
                for ph, shard, cat, name, ts, dur, args in self.events
            ],
            "metrics": self.metrics.as_dict(),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.snapshot(), f, indent=1)

    @staticmethod
    def load(path: str) -> Dict[str, Any]:
        """Load and validate a saved profile dict (not a live Profiler)."""
        with open(path) as f:
            data = json.load(f)
        if data.get("format") != "repro-profile":
            raise ValueError(f"{path} is not a repro profile "
                             f"(format={data.get('format')!r})")
        return data


# ---------------------------------------------------------------------------
# The global default profiler: a disabled no-op until someone enables it.
# Instrumented components capture it at construction time unless handed an
# explicit instance, so enabling/disabling mutates this object in place
# rather than swapping it out.
# ---------------------------------------------------------------------------

_PROFILER = Profiler(enabled=False)


def get_profiler() -> Profiler:
    """The process-wide default profiler (disabled unless enabled)."""
    return _PROFILER


def set_profiler(profiler: Profiler) -> Profiler:
    """Replace the global default; returns the previous one.

    Components constructed *before* the swap keep their captured reference —
    prefer passing ``profiler=`` explicitly (Runtime, DCRPipeline, ...) for
    scoped profiling, and use this only for whole-process sessions (the
    benchmark harness's ``REPRO_PROFILE_DIR`` hook).
    """
    global _PROFILER
    prev, _PROFILER = _PROFILER, profiler
    return prev


class profiled:
    """``with profiled() as prof:`` — enable the global profiler for a block.

    Restores the previous enabled state (and clears nothing) on exit, so
    nesting and post-mortem inspection both work.
    """

    def __init__(self, profiler: Optional[Profiler] = None) -> None:
        self.profiler = profiler or _PROFILER
        self._was_enabled = False

    def __enter__(self) -> Profiler:
        self._was_enabled = self.profiler.enabled
        return self.profiler.enable()

    def __exit__(self, *exc: Any) -> None:
        self.profiler.enabled = self._was_enabled
