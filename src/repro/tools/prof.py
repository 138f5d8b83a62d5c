"""``python -m repro.tools.prof`` — shard-timeline profile reader.

Loads a raw profile saved by :meth:`repro.obs.Profiler.save` (the
``run.trace.json`` form), prints a per-shard summary — time in coarse vs
fine vs collectives vs trace replay vs determinism vs execution, plus the
top-k fence-pressure regions — and writes a Chrome trace-event JSON next to
it (loadable in ``chrome://tracing`` or https://ui.perfetto.dev).

Usage::

    python -m repro.tools.prof run.trace.json            # summary + chrome
    python -m repro.tools.prof run.trace.json --chrome out.json --top 10
    python -m repro.tools.prof --demo run.trace.json     # profile a built-in
                                                         # traced stencil run
                                                         # first, then report

``--demo`` exists so CI (and new users) can produce a realistic profile
with one command: it runs a few time-steps of the halo stencil through the
real runtime with automatic trace identification on, so the resulting
timeline shows fresh analysis, a retroactive recording, replays, and the
one settle that folds the replayed steps into the epochs.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Sequence

from ..obs.chrome import export_chrome_trace
from ..obs.events import (ANALYSIS_CATEGORIES, CAT_COARSE, CONTROL_SHARD,
                          EV_FENCE_INSERT)
from ..obs.profiler import Profiler

__all__ = ["main", "shard_summary", "fence_pressure", "run_demo"]


# -- aggregation -------------------------------------------------------------

def shard_summary(profile: Dict[str, Any]) -> Dict[int, Dict[str, float]]:
    """Per-shard microseconds by category (spans only; "X" and B/E pairs)."""
    per: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    open_spans: Dict[tuple, float] = {}
    for ev in profile["events"]:
        shard, cat, ph = ev["shard"], ev["cat"], ev["ph"]
        if ph == "X":
            per[shard][cat] += ev.get("dur", 0.0)
        elif ph == "B":
            open_spans[(shard, cat, ev["name"])] = ev["ts"]
        elif ph == "E":
            t0 = open_spans.pop((shard, cat, ev["name"]), None)
            if t0 is not None:
                per[shard][cat] += ev["ts"] - t0
    return {s: dict(cats) for s, cats in per.items()}


def fence_pressure(profile: Dict[str, Any], top: int = 5
                   ) -> List[tuple]:
    """Top-k (region, fence-count) pairs from fence-insert instants."""
    counts: Counter = Counter()
    for ev in profile["events"]:
        if ev["name"] == EV_FENCE_INSERT and ev["cat"] == CAT_COARSE:
            counts[ev.get("args", {}).get("region", "<unknown>")] += 1
    return counts.most_common(top)


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.1f}ms"
    return f"{us:.0f}us"


def render_summary(profile: Dict[str, Any], top: int = 5) -> str:
    """The human-readable report the CLI prints."""
    per = shard_summary(profile)
    cats = list(ANALYSIS_CATEGORIES)
    lines = ["shard timeline summary (time per subsystem)",
             "-------------------------------------------"]
    header = f"{'shard':>8}" + "".join(f"{c:>14}" for c in cats) \
        + f"{'total':>14}"
    lines.append(header)
    for shard in sorted(per):
        label = "control" if shard == CONTROL_SHARD else str(shard)
        row = per[shard]
        total = sum(row.values())
        lines.append(f"{label:>8}"
                     + "".join(f"{_fmt_us(row.get(c, 0.0)):>14}"
                               for c in cats)
                     + f"{_fmt_us(total):>14}")
    pressure = fence_pressure(profile, top)
    if pressure:
        lines.append(f"top-{top} fence-pressure regions:")
        for region, count in pressure:
            lines.append(f"  {region:<24} {count}")
    metrics = profile.get("metrics", {})
    if metrics:
        lines.append("headline metrics:")
        for key in ("pipeline.ops", "pipeline.traced_ops", "pipeline.points",
                    "coarse.scans", "coarse.fences_inserted",
                    "coarse.fences_elided", "collectives.rounds",
                    "trace.recordings", "trace.replays", "trace.fallbacks",
                    "trace.settles", "trace.entries_folded",
                    "determinism.batches"):
            if key in metrics:
                lines.append(f"  {key:<26} {metrics[key]:g}")
    return "\n".join(lines)


# -- demo workload -----------------------------------------------------------

def run_demo(path: str, shards: int = 4, steps: int = 6,
             tiles: int = 4) -> Profiler:
    """Profile a traced halo-stencil run and save the raw profile to
    ``path``.  Uses automatic trace identification, so the profile contains
    fresh analysis, a retroactive trace recording, and replayed steps."""
    import numpy as np  # noqa: F401  (runtime dependency of task bodies)

    from ..runtime import Runtime

    def _diffuse(point, owned, ghost):
        owned["x"].view[...] = 0.5 * owned["x"].view + \
            0.5 * float(ghost["x"].view.mean())

    def _scale(point, owned):
        owned["x"].view[...] *= 1.001

    def control(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        cells = ctx.create_region(ctx.create_index_space(tiles * 8), fs,
                                  "cells")
        owned = ctx.partition_equal(cells, tiles, name="owned")
        ghost = ctx.partition_ghost(cells, owned, 1, name="ghost")
        ctx.fill(cells, "x", 1.0)
        dom = list(range(tiles))
        for _ in range(steps):
            ctx.index_launch(_diffuse, dom,
                             [(owned, "x", "rw"), (ghost, "x", "ro")])
            ctx.index_launch(_scale, dom, [(owned, "x", "rw")])

    prof = Profiler().enable()
    rt = Runtime(num_shards=shards, auto_trace=True, profiler=prof)
    rt.execute(control)
    prof.save(path)
    return prof


# -- entry point -------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.prof",
        description="Summarize a saved repro profile and export a Chrome "
                    "trace (chrome://tracing / Perfetto).")
    parser.add_argument("trace", help="path to a profile saved by "
                                      "Profiler.save() (run.trace.json)")
    parser.add_argument("--chrome", metavar="PATH", default=None,
                        help="Chrome trace output path "
                             "(default: <trace>.chrome.json)")
    parser.add_argument("--top", type=int, default=5,
                        help="how many fence-pressure regions to show")
    parser.add_argument("--demo", action="store_true",
                        help="first generate TRACE by profiling a built-in "
                             "auto-traced stencil run")
    args = parser.parse_args(argv)

    if args.demo:
        run_demo(args.trace)
        print(f"demo profile written to {args.trace}")
    try:
        profile = Profiler.load(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(render_summary(profile, top=args.top))
    chrome_path = args.chrome or args.trace.replace(".json", "") \
        + ".chrome.json"
    export_chrome_trace(profile, chrome_path)
    print(f"chrome trace written to {chrome_path} "
          f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
