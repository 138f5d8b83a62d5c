"""bench_e2e: the repo's end-to-end benchmark.

Seven named workloads, five bounded end-to-end metrics plus ``failed_frac``,
and a per-layer ledger from a separate traced run.  README.md explains the
workloads, the hooks and how to read the ledger; BENCHMARK.json at the
repo root is the machine-readable contract.

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload cg_tcp --seed 3
    python3 benchmarks/e2e/run.py --trace 1 --out ledger.json
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` the last line of stdout is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics that
are a number on every workload (``RESULT_LAYERS``).

Every round of a workload runs in its own fresh interpreter
(``child.py``), on one CPU, the next one each round.  An untraced run is
four rounds, each with its own set-up.  The three time metrics are
computed per slice of half a second or so and report the quietest slice of
the run (interference on a shared machine comes in bursts and only ever
slows a slice down); ``setup_s`` reports the quietest of the four set-ups
for the same reason and ``peak_rss_mb`` the median round.  A traced run is one round in which
traced and plain operations alternate; the plain ones give the tracing
overhead.

``BENCHMARK.json`` lists four of the seven workloads (``GATED``): the
driver's time cap buys 26 s runs for four workloads or 12 s runs for seven,
and 12 s runs were too noisy for their own bounds.  The other three run
here all the same.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")

ROUNDS = 4
DEFAULT_SECONDS = 26.0       # BENCHMARK.json's run_seconds
SMOKE_SECONDS = 1.2          # shared by one untraced and one traced round
CHILD_TIMEOUT_S = 170.0

WORKLOADS = ("stencil_fine", "stencil_traced", "stencil_coarse",
             "stencil_metg", "cg_tcp", "service_cold_shm",
             "service_hit_loopback")

#: The workloads BENCHMARK.json lists, so the ones the driver runs and
#: bounds.  Left out: ``stencil_coarse`` and ``stencil_metg`` (cache- and
#: memory-bound, so the co-tenants' bursts hit them hardest, and most
#: changes predict no change on them) and ``service_cold_shm`` (two workers
#: and the driver's pump threads on two CPUs, which measures the scheduler).
GATED = ("stencil_fine", "stencil_traced", "cg_tcp", "service_hit_loopback")

#: name -> (unit, better, bound); BENCHMARK.json carries the same rows.
#: ``failed_frac`` is reported beside them with an absolute bound of 0; the
#: driver's contract wants metrics that are never 0, so it travels in the
#: result line's ``failed``/``attempted`` instead of BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "run_ms_p50": ("ms", "lower", 0.25),
    "tasks_per_s": ("1/s", "higher", 0.25),
    "cpu_ms_per_run": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

#: The time metrics report the quietest slice of the run (a slice is half a
#: second or so of consecutive operations, see ``child.SLICE_S``), and
#: ``setup_s`` the quietest set-up.  Noisy neighbours slow a shared machine
#: in bursts, by up to 70 % on the builder's, and never speed it up; a
#: slowdown of the program itself is in every slice and every set-up and
#: moves the best one as far as any other.  ``peak_rss_mb`` reports the
#: median round.  README.md, "Noise and bounds", has the measurements.
SLICED = {"run_ms_p50": min, "tasks_per_s": max, "cpu_ms_per_run": min}
BEST = dict(SLICED, setup_s=min)

#: name -> (unit, better); every one is printed by a traced run and written
#: to ``--out``, ``null`` where the layer does not run on the workload.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "legate.from_values_ms": ("ms", "lower"),
    "legate.to_numpy_ms": ("ms", "lower"),
    "legate.array_op_us": ("us", "lower"),
    "legate.launches_per_array_op": ("count", "lower"),
    "legate.fields_created": ("count", "lower"),
    "legate.field_reuse_ratio": ("ratio", "higher"),
    "runtime.launch_us": ("us", "lower"),
    "runtime.get_value_us": ("us", "lower"),
    "runtime.exec_point_us": ("us", "lower"),
    "runtime.kernel_ms": ("ms", "lower"),
    "runtime.kernel_share": ("ratio", "higher"),
    "runtime.points_executed": ("count", "lower"),
    "runtime.empty_run_ms": ("ms", "lower"),
    "runtime.metg_us": ("us", "lower"),
    "runtime.metg_reached": ("count", "higher"),
    "runtime.peak_efficiency": ("ratio", "higher"),
    "core.analyze_us_per_op": ("us", "lower"),
    "core.coarse_us_per_op": ("us", "lower"),
    "core.fine_us_per_point": ("us", "lower"),
    "core.ops_analyzed": ("count", "lower"),
    "core.points_analyzed": ("count", "lower"),
    "core.fences": ("count", "lower"),
    "core.fences_elided": ("count", "higher"),
    "core.coarse_scans": ("count", "lower"),
    "core.trace_replayed_ratio": ("ratio", "higher"),
    "core.trace_fallbacks": ("count", "lower"),
    "core.auto_traces": ("count", "higher"),
    "core.scans_saved": ("count", "higher"),
    "core.determinism_record_us": ("us", "lower"),
    "core.determinism_calls": ("count", "lower"),
    "core.determinism_checks": ("count", "lower"),
    "core.determinism_check_ms": ("ms", "lower"),
    "core.determinism_payload_us_per_kelem": ("us", "lower"),
    "core.collective_rounds": ("count", "lower"),
    "core.collective_messages": ("count", "lower"),
    "regions.alias_hit_ratio": ("ratio", "higher"),
    "regions.contains_hit_ratio": ("ratio", "higher"),
    "dist.frames_sent": ("count", "lower"),
    "dist.frames_per_run": ("count", "lower"),
    "dist.rtt_us_small": ("us", "lower"),
    "dist.mb_per_s_large": ("MB/s", "higher"),
    "dist.duplicates_dropped": ("count", "lower"),
    "dist.out_of_order": ("count", "lower"),
    "dist.barrier_us": ("us", "lower"),
    "dist.allreduce_us": ("us", "lower"),
    "dist.coll_rounds": ("count", "lower"),
    "dist.coll_messages": ("count", "lower"),
    "dist.monitor_frames_per_call": ("ratio", "lower"),
    "dist.worker_wall_ms": ("ms", "lower"),
    "dist.driver_wait_ms": ("ms", "lower"),
    "dist.leaked_children": ("count", "lower"),
    "dist.leaked_shm_segments": ("count", "lower"),
    "service.template_hit_ratio": ("ratio", "higher"),
    "service.template_lookup_us": ("us", "lower"),
    "service.template_patch_us": ("us", "lower"),
    "service.template_record_us": ("us", "lower"),
    "service.template_evictions": ("count", "lower"),
    "service.dispatch_us": ("us", "lower"),
    "service.jobs_rejected": ("count", "lower"),
    "service.jobs_expired": ("count", "lower"),
    "ledger.legate_self_ms": ("ms", "lower"),
    "ledger.runtime_self_ms": ("ms", "lower"),
    "ledger.kernel_self_ms": ("ms", "lower"),
    "ledger.core_self_ms": ("ms", "lower"),
    "ledger.core_determinism_self_ms": ("ms", "lower"),
    "ledger.dist_transport_self_ms": ("ms", "lower"),
    "ledger.dist_collectives_self_ms": ("ms", "lower"),
    "ledger.dist_runner_self_ms": ("ms", "lower"),
    "ledger.service_self_ms": ("ms", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
    "obs.unattributed_frac": ("ratio", "lower"),
}

#: The per-layer metrics that are a number on every workload: the ledger's
#: decomposition of the wall, the analysis core's exact counts, and the
#: probes and guards every round takes.  BENCHMARK.json's ``per_layer`` and
#: the ``--trace 1`` result line carry exactly these: the driver wants a
#: number for each listed metric on each workload, and a stand-in for "the
#: layer did not run" would read as a perfect score on a lower-is-better
#: metric.  The rest of the ledger is in the table and in ``--out``.
RESULT_LAYERS = (
    "runtime.empty_run_ms",
    "core.ops_analyzed", "core.points_analyzed", "core.fences",
    "core.fences_elided", "core.trace_fallbacks", "core.auto_traces",
    "core.scans_saved", "core.determinism_calls", "core.determinism_checks",
    "core.determinism_check_ms", "core.determinism_payload_us_per_kelem",
    "dist.leaked_children", "dist.leaked_shm_segments",
    "ledger.legate_self_ms", "ledger.runtime_self_ms",
    "ledger.kernel_self_ms", "ledger.core_self_ms",
    "ledger.core_determinism_self_ms", "ledger.dist_transport_self_ms",
    "ledger.dist_collectives_self_ms", "ledger.dist_runner_self_ms",
    "ledger.service_self_ms",
    "obs.trace_overhead_frac", "obs.unattributed_frac",
)

TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


class RoundFailed(RuntimeError):
    """A child interpreter died or printed no result."""


# ---------------------------------------------------------------------------
# Running rounds
# ---------------------------------------------------------------------------

def run_round(workload: str, seed: int, seconds: float, index: int = 0, *,
              traced: bool = False, smoke: bool = False) -> Dict[str, Any]:
    """One fresh interpreter: set-up, timed window, teardown."""
    cmd = [sys.executable, CHILD, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--traced", str(int(traced)),
           "--round", str(index), "--smoke", str(int(smoke)),
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload}: round exceeded "
                          f"{CHILD_TIMEOUT_S:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload}: child exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RoundFailed(f"{workload}: unreadable child result") from None


def _quantile_detail(values: Sequence[float]) -> Dict[str, Any]:
    """n, quartiles, and the highest percentile with >= 10 samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    detail: Dict[str, Any] = {"n": n}
    if n >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
        detail.update(q1=q1, q3=q3)
    tail = [p for p in TAIL_PERCENTILES if n * (1 - p / 100.0) >= 10]
    if tail:
        p = tail[-1]
        detail.update(tail_percentile=p,
                      tail_value=ordered[min(n - 1, int(n * p / 100.0))])
    return detail


def summarize(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of one workload from its untraced rounds."""
    op_ms = [s * 1e3 for r in rounds for s in r["op_s"]]
    attempted = sum(r["attempted"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]]
    out: Dict[str, Any] = {
        "attempted": attempted, "failed": len(errors), "errors": errors[:5],
        "failed_frac": len(errors) / attempted if attempted else 0.0,
    }
    good = [r for r in rounds if r["op_s"]]
    if not good:
        return out
    # Per slice: the median wall, and two means, so a tail the program
    # itself produces (a collection, an eviction) is in every slice.
    per_round: Dict[str, List[float]] = {name: [] for name in SLICED}
    for r in good:
        slices: Dict[str, List[float]] = {name: [] for name in SLICED}
        for sl in r["slices"]:
            walls = r["op_s"][sl["first"]:sl["first"] + sl["ops"]]
            slices["run_ms_p50"].append(statistics.median(walls) * 1e3)
            slices["tasks_per_s"].append(sl["points"] / sum(walls))
            slices["cpu_ms_per_run"].append(sl["cpu_s"] * 1e3 / sl["ops"])
        for name, best in SLICED.items():
            per_round[name].append(best(slices[name]))
    per_round["peak_rss_mb"] = [r["peak_rss_mb"] for r in rounds]
    per_round["setup_s"] = [r["setup_s"] for r in rounds]
    out.update({name: BEST.get(name, statistics.median)(vals)
                for name, vals in per_round.items()})
    out["detail"] = {name: {"rounds": vals} for name, vals in
                     per_round.items()}
    out["detail"]["run_ms_p50"].update(_quantile_detail(op_ms))
    return out


def measure(workload: str, seed: int, seconds: float, *, rounds: int,
            traced: bool, smoke: bool = False) -> Dict[str, Any]:
    """``rounds`` untraced rounds (end-to-end), then optionally a traced
    one (per-layer); ``seconds`` is shared equally between them."""
    window = seconds / (rounds + (1 if traced else 0))
    plain = [run_round(workload, seed, window, i, smoke=smoke)
             for i in range(rounds)]
    result = summarize(plain)
    if traced:
        t = run_round(workload, seed, window, rounds, traced=True,
                      smoke=smoke)
        result["attempted"] += t["attempted"]
        result["failed"] += len(t["errors"])
        result["errors"] = (result["errors"] + t["errors"])[:5]
        result["failed_frac"] = result["failed"] / result["attempted"]
        result["layers"] = t["layers"]
        result["spans_path"] = t.get("spans_path")
        plain.append(t)
    result["numpy"] = plain[0]["numpy"]
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _nest(flat: Dict[str, Any]) -> Dict[str, Any]:
    """``{"a.b": v}`` -> ``{"a": {"b": v}}`` so ``bench_gate``'s dotted
    paths (``workloads.cg_tcp.dist.rtt_us_small``) resolve."""
    out: Dict[str, Any] = {}
    for key, value in flat.items():
        node = out
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return out


def workload_entry(result: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's part of the ``--out`` report."""
    entry: Dict[str, Any] = {}
    if "run_ms_p50" in result:
        for name in END_TO_END:
            entry[name] = result[name]
        entry["detail"] = result["detail"]
    entry["failed_frac"] = result["failed_frac"]
    entry["attempted"] = result["attempted"]
    entry["errors"] = result["errors"]
    if "layers" in result:
        entry.update(_nest({k: result["layers"].get(k) for k in PER_LAYER}))
        entry["spans_path"] = result.get("spans_path")
    return entry


def context(seed: int, seconds: float, rounds: int,
            numpy_version: str) -> Dict[str, Any]:
    """Where and how the numbers were taken."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, index, "size")) as f:
                caches[f"L{level}_{kind}"] = f.read().strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"seed": seed, "seconds": seconds, "rounds": rounds,
            "nproc": os.cpu_count(), "caches": caches,
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine(), "git_commit": commit}


def print_table(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for err in result["errors"]:
        print(f"   ERROR {err}")
    if "run_ms_p50" in result:
        d = result["detail"]["run_ms_p50"]
        for metric, (unit, better, bound) in END_TO_END.items():
            print(f"   {metric:<34}{result[metric]:>14.4f} {unit:<6}"
                  f"({better} is better, bound {bound:.0%})")
        print(f"   {'failed_frac':<34}{result['failed_frac']:>14.4f} "
              f"{'ratio':<6}(bound 0 absolute)")
        extra = f"   run_ms: n={d['n']}"
        if "q1" in d:
            extra += f" q1={d['q1']:.4f} q3={d['q3']:.4f}"
        if "tail_percentile" in d:
            extra += f" p{d['tail_percentile']:g}={d['tail_value']:.4f}"
        print(extra)
    for metric, value in result.get("layers", {}).items():
        if metric in PER_LAYER:
            shown = "null" if value is None else f"{value:.4f}"
            print(f"   {metric:<44}{shown:>16} {PER_LAYER[metric][0]}")


def result_line(result: Dict[str, Any], traced: bool) -> str:
    """The driver's last line: every metric of the requested kind."""
    if traced:
        layers = result["layers"]
        missing = [name for name in RESULT_LAYERS if layers[name] is None]
        if missing:
            raise RoundFailed(f"traced round gave no value for {missing}")
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name][0]}
                   for name in RESULT_LAYERS}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, (unit, _better, _bound) in END_TO_END.items()}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def _spread(values: Sequence[float]) -> float:
    """Quartile distance over median of the per-round values.

    The rounds are the whole population of one run, hence the inclusive
    method.  The reported value
    (the best or the median round) moves less than that from run to run,
    so ``unresolved`` errs on the side of saying so.
    """
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric: B against A."""
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    worst = 0
    print(f"{'workload':<22}{'metric':<16}{'A':>16}{'B':>16}"
          f"{'worse by':>10}{'bound':>8}{'spread':>8}  verdict")
    for name in list(a) + [n for n in b if n not in a]:
        if name not in a or name not in b:
            print(f"{name:<22}missing from "
                  f"{path_b if name in a else path_a}")
            worst = 1
            continue
        for metric, (_unit, better, bound) in END_TO_END.items():
            va, vb = a[name].get(metric), b[name].get(metric)
            if not va or vb is None:        # absent, or nothing to divide by
                print(f"{name:<22}{metric:<16}{'-':>16}{'-':>16}"
                      f"{'':>10}{bound:>8.0%}{'':>8}  regressed")
                worst = 1
                continue
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            spread = max(
                _spread(doc[name]["detail"][metric]["rounds"])
                for doc in (a, b))
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            worst = max(worst, verdict != "ok")
            print(f"{name:<22}{metric:<16}{va:>16.4f}{vb:>16.4f}"
                  f"{worse:>+10.1%}{bound:>8.0%}{spread:>8.1%}  {verdict}")
        fa, fb = a[name]["failed_frac"], b[name]["failed_frac"]
        verdict = "ok" if fb <= 0 else "regressed"
        worst = max(worst, verdict != "ok")
        print(f"{name:<22}{'failed_frac':<16}{fa:>16.4f}{fb:>16.4f}"
              f"{'':>10}{'0 abs':>8}{'':>8}  {verdict}")
    return int(worst)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="bench_e2e: end-to-end benchmark with a per-layer "
                    "ledger (see benchmarks/e2e/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; the last stdout line is then the "
                         "result object (default: all seven)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measured time per workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="cut-down inputs, one untraced and one traced "
                         "round per workload, under 30 s in all")
    ap.add_argument("--out", metavar="PATH",
                    help="write the full JSON report to PATH")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two reports against the bounds")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    traced = bool(args.trace or args.smoke)
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    # end to end: ROUNDS untraced rounds; per layer: one traced round;
    # smoke: one of each, so both kinds of metric are exercised
    rounds = 1 if args.smoke else (0 if traced else ROUNDS)
    doc: Dict[str, Any] = {"schema": 1, "workloads": {}}
    failed = 0
    result: Dict[str, Any] = {}
    try:
        for name in names:
            result = measure(name, args.seed, seconds, rounds=rounds,
                             traced=traced, smoke=args.smoke)
            failed += result["failed"]
            print_table(name, result)
            doc["workloads"][name] = workload_entry(result)
        if not args.workload:
            extra = run_round("verify_extra", args.seed, 0.0)
            failed += len(extra["errors"])
            print(f"== verify_extra (logistic_regression, kmeans on "
                  f"loopback x2): {extra['attempted']} attempted, "
                  f"{len(extra['errors'])} failed")
            for err in extra["errors"]:
                print(f"   ERROR {err}")
            doc["verify_extra"] = {
                "attempted": extra["attempted"], "errors": extra["errors"],
                "failed_frac": len(extra["errors"]) / extra["attempted"]}
        line = None
        if args.workload and ("layers" if rounds == 0 else "run_ms_p50") \
                in result:
            line = result_line(result, rounds == 0)
    except RoundFailed as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2
    doc["context"] = context(args.seed, seconds, rounds,
                             result.get("numpy", ""))
    doc["context"]["mode"] = "smoke" if args.smoke else \
        ("traced" if traced else "end_to_end")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    if line:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
