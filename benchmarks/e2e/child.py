"""One round of one workload in a fresh interpreter.

``run.py`` starts this file once per round so that set-up time really is
"interpreter start to first timed operation" and nothing is warm that a
user's first run would find cold.  The round:

1. set-up: imports, seeded inputs and expected outputs, gang/service
   start, one untimed but verified warm-up operation (charged to
   ``setup_s``);
2. the timed closed loop for ``--seconds``: ``gc.collect()`` (GC stays
   on), one operation, verify its result; operations are grouped into
   slices of about a second for the time metrics;
3. teardown, the inprocess x1 identity check, leak counts, and — in a
   traced round — the per-layer ledger and probes.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT_DIR = os.path.join(HERE, "out")       # spans and worker profiles


#: gc.collect() runs before every operation, except that sub-millisecond
#: operations share one collection per this much operation time: a full
#: collection costs ~10 ms here and would otherwise be the whole window.
GC_EVERY_S = 0.02


#: The three time metrics are computed per slice: whole input cycles of
#: consecutive operations, at least ``SLICE_OPS`` of them, spanning at least
#: this much of the window.  On a shared machine interference comes in
#: bursts, some shorter than a second, and a run far more often holds a
#: quiet half second than a quiet round (README.md, "Noise and bounds").
SLICE_S = 0.5
SLICE_OPS = 3

#: ``peak_rss_mb`` is read when this many operations of the round have been
#: verified (or at its end, if it ran fewer).  The footprint grows by a
#: third of a megabyte per ``Runtime.execute`` on the stencil workloads, so
#: the high-water mark of a whole round follows the number of operations
#: the machine fitted into it: 10 % between a quiet round and a slowed one.
RSS_OPS = 10

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _maxrss_kb() -> Tuple[int, int]:
    """High-water marks of this process and of its largest reaped child."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _cpu_s() -> float:
    """user+sys of this process plus every child reaped so far."""
    # Both clocks resolve microseconds; os.times ticks at 10 ms, which is
    # 1.5 % of a three-operation slice of cg_tcp.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _live_children_cpu_s() -> float:
    """user+sys so far of the children still running (a service's gang):
    ``os.times`` only learns of it when they are reaped at teardown."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue                  # gone since the listing
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def timed_loop(wl: Any, seconds: float, tracer: Any) -> Dict[str, Any]:
    """Run operations until the window is spent; verify each result.

    ``slices`` are ``{"first", "ops", "points", "cpu_s"}`` over ``op_s``;
    ``rss_kb`` is ``_maxrss_kb()`` after ``RSS_OPS`` operations, if any.
    A slice's CPU is what its operations cost this process and the
    children reaped inside them, plus what the live children burned from
    its first operation to its last, polling between operations included.
    """
    op_s: List[float] = []
    errors: List[str] = []
    slices: List[Dict[str, Any]] = []
    attempted = 0
    rss_kb = None
    total_s = 0.0
    since_collect = GC_EVERY_S
    first, slice_cpu, slice_points = 0, 0.0, 0
    live0 = _live_children_cpu_s()

    def close_slice() -> None:
        nonlocal first, slice_t0, slice_cpu, slice_points, live0
        live1 = _live_children_cpu_s()
        slices.append({"first": first, "ops": len(op_s) - first,
                       "points": slice_points,
                       "cpu_s": slice_cpu + live1 - live0})
        first, slice_cpu, slice_points = len(op_s), 0.0, 0
        slice_t0, live0 = time.perf_counter(), live1

    slice_t0 = time.perf_counter()
    end = slice_t0 + seconds
    while True:
        if since_collect >= GC_EVERY_S:
            gc.collect()
            since_collect = 0.0
        if tracer is not None:
            tracer.before_op(attempted)
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            pts = wl.op()
            err = None
        except Exception as exc:  # noqa: BLE001 - an op failure is a result
            pts, err = 0, f"{wl.name}: {type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), _cpu_s()
        if tracer is not None:
            tracer.after_op(t0, t1, failed=err is not None)
        if err is None:
            err = wl.check()
        attempted += 1
        if attempted == RSS_OPS:
            rss_kb = _maxrss_kb()
        since_collect += t1 - t0
        if err is None:
            op_s.append(t1 - t0)
            total_s += t1 - t0
            slice_cpu += c1 - c0
            slice_points += pts
            ops = len(op_s) - first
            if t1 - slice_t0 >= SLICE_S and ops >= SLICE_OPS and \
                    ops % wl.count_cycle == 0:
                close_slice()
        else:
            errors.append(err)
            if len(errors) >= 5:
                break             # a broken build should not burn the window
        # Stop when less than half a typical operation is left, so the
        # number of operations does not hinge on the last few milliseconds.
        typical = total_s / len(op_s) if op_s else t1 - t0
        if t1 + 0.5 * typical >= end:
            break
    if not slices and len(op_s) > first:
        close_slice()                 # a window shorter than one slice
    return {"op_s": op_s, "errors": errors, "attempted": attempted,
            "slices": slices, "rss_kb": rss_kb}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, required=True)
    ap.add_argument("--round", type=int, required=True,
                    help="index of this round in its run: picks the CPU; "
                         "round 0 also checks identity with inprocess x1")
    ap.add_argument("--smoke", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when run.py started this round")
    args = ap.parse_args(argv)

    if not os.path.isdir(SRC):
        print(f"benchmarks/e2e: the program under test is missing: {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import workloads

    if args.workload == "verify_extra":
        results = workloads.verify_extra_programs(args.seed)
        print(json.dumps({"attempted": len(results),
                          "errors": [r for r in results if r]}))
        return 0

    shm0 = _shm_segments()
    wl = workloads.make_workload(args.workload)
    if wl.backend != "shm":
        # One CPU per round, the next one each round.  All but the shm gang
        # (two workers and a driver that poll rings) keep one CPU busy at a
        # time: inprocess replays its shards in turn, a loopback gang is
        # threads under the GIL (left free they wake each other across
        # CPUs, 20 to 200 us a hand-off on a VM), and tcp x2 is a parent
        # that replays and then waits in the kernel for its one replica.
        # On a shared host each virtual CPU is slowed by its own neighbours
        # for tens of seconds at a time, and two busy ones more often than
        # one (README.md, "Noise and bounds"); the guest's scheduler cannot
        # see that, so the rounds of a run take the CPUs in turn.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[args.round % len(cpus)]})
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer(wl, OUT_DIR)
    wl.setup(args.seed, bool(args.smoke),
             profile_dir=tracer.profile_dir if tracer else None)
    errors: List[str] = []
    try:
        wl.op()                               # warm-up: untimed, verified
        warm_err = wl.check()
    except Exception as exc:  # noqa: BLE001 - reported as a failed op
        warm_err = f"{wl.name}: warm-up {type(exc).__name__}: {exc}"
    if warm_err:
        errors.append(warm_err)
    if tracer is not None:
        tracer.note_warmup()
    setup_s = time.monotonic() - args.t0

    loop = timed_loop(wl, args.seconds, tracer)
    errors += loop["errors"]
    attempted = loop["attempted"] + 1
    if tracer is not None:
        tracer.before_teardown()
    wl.teardown()
    # Read before the x1 check adds a second runtime's worth of memory to
    # the one round that runs it.  A service's gang is only reaped by the
    # teardown, so its mark is not there yet after RSS_OPS operations.
    rss_end = _maxrss_kb()
    rss_self, rss_kids = loop["rss_kb"] or rss_end
    if args.round == 0 and not errors:
        attempted += 1
        err = wl.check_x1()
        if err:
            errors.append(err)
    leaked_children = len(multiprocessing.active_children())
    leaked_shm = len(_shm_segments() - shm0)
    result: Dict[str, Any] = {
        "setup_s": setup_s, "op_s": loop["op_s"], "slices": loop["slices"],
        "attempted": attempted, "errors": errors,
        "peak_rss_mb": (rss_self + (rss_kids or rss_end[1])) / 1024,
        "leaked_children": leaked_children, "leaked_shm": leaked_shm,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(leaked_children, leaked_shm)
        spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}.json")
        tracer.ledger.write(spans_path)
        result["spans_path"] = os.path.relpath(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
