"""Chrome trace-event export: load profiles in ``chrome://tracing``/Perfetto.

Emits the JSON Object Format of the Trace Event spec: one *process* (pid)
per shard — pid 0 is the control plane (:data:`~repro.obs.events.
CONTROL_SHARD`), shard ``s`` maps to pid ``s + 1`` — and one *thread* (tid)
per event category within each shard, so a shard's coarse, fine,
collective, trace and execution activity stack as parallel tracks.

Span begin/end pairs pass through as ``B``/``E`` events, pre-timed spans as
``X`` (complete) events, instants as ``i`` with thread scope; metadata
events name every process and thread.  Events are sorted by timestamp
(metadata first), which both viewers and our schema test
(``tests/obs/test_chrome_export.py``) rely on.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

from .events import (CAT_COARSE, CAT_COLLECTIVE, CAT_CONTROL,
                     CAT_DETERMINISM, CAT_EXEC, CAT_FINE, CAT_PIPELINE,
                     CAT_TRACE, CONTROL_SHARD)
from .profiler import Profiler

__all__ = ["chrome_trace_events", "export_chrome_trace", "shard_pid"]

#: Stable track order within a shard process; unknown categories follow.
_CATEGORY_ORDER = [CAT_CONTROL, CAT_PIPELINE, CAT_COARSE, CAT_FINE,
                   CAT_COLLECTIVE, CAT_TRACE, CAT_DETERMINISM, CAT_EXEC]


def shard_pid(shard: int) -> int:
    """Chrome pid of a shard (control plane -> 0, shard s -> s + 1)."""
    return 0 if shard == CONTROL_SHARD else shard + 1


def _normalize(profile: Union[Profiler, Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(profile, Profiler):
        return profile.snapshot()
    return profile


def chrome_trace_events(profile: Union[Profiler, Dict[str, Any]]
                        ) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for one profile, metadata included."""
    snap = _normalize(profile)
    tids: Dict[str, int] = {c: i for i, c in enumerate(_CATEGORY_ORDER)}
    out: List[Dict[str, Any]] = []
    seen: set = set()

    body: List[Dict[str, Any]] = []
    for ev in snap["events"]:
        shard, cat = ev["shard"], ev["cat"]
        pid = shard_pid(shard)
        tid = tids.setdefault(cat, len(tids))
        seen.add((shard, pid, cat, tid))
        entry: Dict[str, Any] = {
            "ph": ev["ph"], "pid": pid, "tid": tid,
            "cat": cat, "name": ev["name"], "ts": ev["ts"],
        }
        if ev["ph"] == "X":
            entry["dur"] = ev.get("dur", 0.0)
        if ev["ph"] == "i":
            entry["s"] = "t"        # thread-scoped instant
        if ev.get("args"):
            entry["args"] = ev["args"]
        body.append(entry)
    body.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))

    # Metadata: one process_name per pid, one thread_name per (pid, tid).
    named_pids: set = set()
    for shard, pid, cat, tid in sorted(seen):
        if pid not in named_pids:
            named_pids.add(pid)
            label = ("control plane" if shard == CONTROL_SHARD
                     else f"shard {shard}")
            out.append({"ph": "M", "pid": pid, "tid": 0,
                        "name": "process_name", "args": {"name": label}})
            out.append({"ph": "M", "pid": pid, "tid": 0,
                        "name": "process_sort_index",
                        "args": {"sort_index": pid}})
        out.append({"ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": cat}})
        out.append({"ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_sort_index",
                    "args": {"sort_index": tid}})
    out.extend(body)
    return out


def export_chrome_trace(profile: Union[Profiler, Dict[str, Any]],
                        path: str) -> Dict[str, Any]:
    """Write the Chrome trace JSON for ``profile``; returns the document."""
    snap = _normalize(profile)
    doc = {
        "traceEvents": chrome_trace_events(snap),
        "displayTimeUnit": "ms",
        "otherData": {"metrics": snap.get("metrics", {})},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return doc
