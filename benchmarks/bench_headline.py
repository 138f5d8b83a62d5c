"""The paper's headline claims (§1 abstract, §5), checked in one place.

The abstract promises three numbers: 11.4x over Dask, 14.9x over
TensorFlow, and scalability to hundreds of nodes with HPC performance
competitive with explicitly parallel systems.  This module derives each
from the same figure sweeps the individual benchmarks run and asserts the
reproduction lands in the right regime (EXPERIMENTS.md records the exact
values of one run).
"""

from figutils import print_series, run_once

from repro.evaluation.figures import (figure12a, figure14, figure18,
                                      figure19)


def headline():
    rows = []

    # 11.4x over Dask: logistic regression at 1280 cores (64 sockets).
    _h, logreg = figure19(sockets=(1, 64))
    dask, legate_cpu = logreg[-1][2], logreg[-1][3]
    rows.append(("vs Dask (logreg, 1280 cores)", 11.4, legate_cpu / dask))

    # 14.9x over TensorFlow: CANDLE at 768 GPUs.
    _h, candle = figure18(gpu_points=(768,))
    rows.append(("vs TensorFlow (CANDLE, 768 GPUs)", 14.9, candle[0][3]))
    rows.append(("hybrid comm reduction", 20.0, candle[0][4]))

    # Scalability to hundreds of nodes: stencil weak scaling efficiency.
    _h, weak = figure12a(nodes=[1, 512])
    rows.append(("DCR weak-scaling eff @512 nodes", 0.975,
                 weak[-1][3] / weak[0][3]))

    # Competitive with explicit parallelism: Pennant vs best MPI config.
    _h, pennant = figure14(nodes=(32,))
    _n, _g, _cpu, _cuda, gpudirect, _nocr, dcr = pennant[0]
    rows.append(("Pennant DCR / MPI+GPUDirect", 0.86, dcr / gpudirect))
    return rows


def test_headline_claims(benchmark):
    rows = run_once(benchmark, headline)
    print_series("Headline claims: paper vs this reproduction",
                 ["claim", "paper", "measured"], rows)
    by_claim = {c: (paper, got) for c, paper, got in rows}
    paper, got = by_claim["vs Dask (logreg, 1280 cores)"]
    assert 0.5 * paper <= got <= 2.5 * paper
    paper, got = by_claim["vs TensorFlow (CANDLE, 768 GPUs)"]
    assert 0.5 * paper <= got <= 2.0 * paper
    paper, got = by_claim["hybrid comm reduction"]
    assert got >= 0.75 * paper
    _paper, got = by_claim["DCR weak-scaling eff @512 nodes"]
    assert got >= 0.90
    paper, got = by_claim["Pennant DCR / MPI+GPUDirect"]
    assert 0.75 <= got <= 1.02


# -- indexed-analysis performance baseline (BENCH_headline.json) ---------------
#
# The dependence-analysis hot paths (coarse epochs, fine point epochs, the
# fence store) are indexed; this baseline times them against the naive
# list-scan reference in tests/helpers.py on a stencil sweep, proves the
# products are byte-identical, and records the speedups in
# BENCH_headline.json.  CI re-runs a reduced sweep and fails if the
# measured speedup regresses by more than 20% against the committed
# baseline (relative speedup, not raw wall-clock, so the guard is stable
# across runner hardware).

import argparse
import gc
import json
import math
import os
import sys
import time

_TESTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "tests")
DEFAULT_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "BENCH_headline.json")


def _naive_helpers():
    if _TESTS_DIR not in sys.path:
        sys.path.insert(0, _TESTS_DIR)
    import helpers
    return helpers


def analysis_sweep(num_ops=256, tiles=8):
    """Stencil program for the analysis baseline: fill + (add, stencil)*."""
    from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                      Operation)
    from repro.core.sharding import CYCLIC
    from repro.oracle import READ_ONLY, READ_WRITE, WRITE_DISCARD
    from repro.regions import FieldSpace, IndexSpace, LogicalRegion

    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(4 * tiles), fs, name="cells")
    owned = cells.partition_equal(tiles, name="owned")
    ghost = cells.partition_ghost(owned, 1, name="ghost")
    state = frozenset([fs["state"]])
    flux = frozenset([fs["flux"]])
    dom = list(range(tiles))
    ops = [Operation("fill", [CoarseRequirement(cells, state | flux,
                                                WRITE_DISCARD)], name="fill")]
    for t in range(max(1, (num_ops - 1) // 2)):
        ops.append(Operation(
            "task", [CoarseRequirement(owned, state, READ_WRITE,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=CYCLIC, name=f"add[{t}]"))
        ops.append(Operation(
            "task", [CoarseRequirement(owned, flux, READ_WRITE,
                                       IDENTITY_PROJECTION),
                     CoarseRequirement(ghost, state, READ_ONLY,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=CYCLIC, name=f"st[{t}]"))
    for i, op in enumerate(ops):
        op.seq = i
    return ops


def _run_indexed(ops, shards):
    from repro.core.coarse import CoarseAnalysis
    from repro.core.fine import FineAnalysis
    from repro.regions import clear_region_caches

    clear_region_caches()
    coarse = CoarseAnalysis(shards)
    fine = FineAnalysis(shards)
    for op in ops:
        coarse.analyze(op)
        fine.analyze(op)
    return coarse, fine


def _naive_uncovered(helpers, ncoarse, nfine):
    """Validation pass over the naive products: linear fence walks."""
    from repro.oracle import requirements_conflict_uncached

    fences = list(ncoarse.result.fences)
    bad = []
    for prev, task in nfine.result.cross_edges:
        covered = False
        for preq in prev.requirements:
            for nreq in task.requirements:
                if requirements_conflict_uncached(preq, nreq):
                    if helpers.naive_covers_cross_edge(
                            fences, prev.op.seq, task.op.seq, nreq.region,
                            nreq.fields | preq.fields):
                        covered = True
        if not covered:
            bad.append((prev, task))
    return bad


def bench_analysis(num_ops=256, shards=4, tiles=8, repeats=3):
    """Time indexed vs naive coarse+fine analysis (+ soundness validation)
    on the same sweep; returns the report dict for BENCH_headline.json."""
    helpers = _naive_helpers()
    ops = analysis_sweep(num_ops, tiles)

    best = {"indexed_analyze": float("inf"), "indexed_validate": float("inf"),
            "naive_analyze": float("inf"), "naive_validate": float("inf")}
    coarse = fine = ncoarse = nfine = None
    uncovered = nuncovered = None
    # Collector pauses triggered by the *previous* stage's garbage get
    # charged to whoever runs next; collect up front and keep the collector
    # off inside the timed sections (applied identically to both sides).
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            coarse, fine = _run_indexed(ops, shards)
            t1 = time.perf_counter()
            uncovered = fine.uncovered_cross_edges(coarse.result)
            t2 = time.perf_counter()
        finally:
            gc.enable()
        best["indexed_analyze"] = min(best["indexed_analyze"], t1 - t0)
        best["indexed_validate"] = min(best["indexed_validate"], t2 - t1)

        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            ncoarse, nfine = helpers.run_naive_analysis(ops, shards)
            t1 = time.perf_counter()
            nuncovered = _naive_uncovered(helpers, ncoarse, nfine)
            t2 = time.perf_counter()
        finally:
            gc.enable()
        best["naive_analyze"] = min(best["naive_analyze"], t1 - t0)
        best["naive_validate"] = min(best["naive_validate"], t2 - t1)

    assert uncovered == [] and nuncovered == []
    digest = helpers.analysis_digest(coarse.result, fine.result)
    ndigest = helpers.analysis_digest(ncoarse.result, nfine.result)
    itotal = best["indexed_analyze"] + best["indexed_validate"]
    ntotal = best["naive_analyze"] + best["naive_validate"]
    return {
        "schema": 2,
        "config": {"num_ops": len(ops), "tiles": tiles, "shards": shards,
                   "repeats": repeats},
        "indexed_s": {"analyze": best["indexed_analyze"],
                      "validate": best["indexed_validate"], "total": itotal},
        "naive_s": {"analyze": best["naive_analyze"],
                    "validate": best["naive_validate"], "total": ntotal},
        "speedup": {
            "analyze": best["naive_analyze"] / best["indexed_analyze"],
            "validate": best["naive_validate"] / best["indexed_validate"],
            "total": ntotal / itotal,
        },
        "products": {
            "fences": len(coarse.result.fences),
            "deps": len(coarse.result.deps),
            "fences_elided": coarse.result.fences_elided,
            "cross_edges": len(fine.result.cross_edges),
            "digest": digest,
            "digests_match": digest == ndigest,
        },
    }


def fence_scaling_sweep(num_ops, shards=4):
    """Fence-heavy program: individual RW tasks round-robin over shards.

    Every consecutive pair conflicts on the same region from different
    owner shards, so the coarse stage inserts ~one fence per op — fence
    population grows linearly with program length, which is exactly the
    regime where per-query fence-coverage cost must stay flat."""
    from repro.core.operation import CoarseRequirement, Operation
    from repro.oracle import READ_WRITE
    from repro.regions import FieldSpace, IndexSpace, LogicalRegion

    fs = FieldSpace([("state", "f8")])
    cells = LogicalRegion(IndexSpace.line(64), fs, name="cells")
    state = frozenset([fs["state"]])
    ops = []
    for i in range(num_ops):
        ops.append(Operation(
            "task", [CoarseRequirement(cells, state, READ_WRITE)],
            owner_shard=i % shards, name=f"t{i}"))
    for i, op in enumerate(ops):
        op.seq = i
    return ops, cells, state


def bench_fence_scaling(sizes=(256, 1024, 4096), shards=4, queries=4096):
    """Per-query ``covers_cross_edge`` cost as fence population grows.

    Returns the scaling series plus the log-log slope of per-query time in
    fence count; the O(1) implementation (one dense rank array per fence
    channel, indexed by ``op.seq``) holds the slope near zero, a
    bisect-per-query one shows ~log growth and a linear walk slope ~1."""
    from repro.core.coarse import CoarseAnalysis
    from repro.regions import clear_region_caches

    series = []
    for n in sizes:
        clear_region_caches()
        ops, cells, state = fence_scaling_sweep(n, shards)
        coarse = CoarseAnalysis(shards)
        for op in ops:
            coarse.analyze(op)
        res = coarse.result
        # Deterministic (earlier, later) query pairs spanning the program.
        pairs = []
        for k in range(queries):
            e = (k * 7919) % (n - 1)
            span = n - e - 1
            l = e + 1 + ((k * 104729) % span if span > 0 else 0)
            pairs.append((e, l))
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for e, l in pairs:
                res.covers_cross_edge(e, l, cells, state)
            t1 = time.perf_counter()
        finally:
            gc.enable()
        series.append({"ops": n, "fences": len(res.fences),
                       "per_query_us": 1e6 * (t1 - t0) / queries})
    first, last = series[0], series[-1]
    slope = (math.log(last["per_query_us"] / first["per_query_us"])
             / math.log(last["fences"] / first["fences"]))
    return {"sizes": list(sizes), "queries": queries, "series": series,
            "slope": slope}


def test_fence_scaling_smoke():
    """The scaling sweep runs, fences grow with ops, and the slope is
    meaningfully below linear even on a reduced sweep."""
    scaling = bench_fence_scaling(sizes=(64, 256), queries=256)
    a, b = scaling["series"]
    assert b["fences"] > 2 * a["fences"]
    assert scaling["slope"] < 0.8


def test_analysis_baseline_smoke():
    """Cheap pytest entry: the baseline machinery runs and the indexed and
    naive products agree byte-for-byte on a reduced sweep."""
    report = bench_analysis(num_ops=24, shards=2, tiles=4, repeats=1)
    assert report["products"]["digests_match"]
    assert report["products"]["fences"] > 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Analysis performance baseline (BENCH_headline.json)")
    ap.add_argument("--ops", type=int, default=256,
                    help="sweep size in operations (default: 256)")
    ap.add_argument("--shards", type=int, default=4)
    ap.add_argument("--tiles", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--output", metavar="PATH",
                    help="write the JSON report to PATH")
    ap.add_argument("--check-baseline", metavar="PATH",
                    help="fail if total speedup regressed >20%% vs PATH")
    ap.add_argument("--min-speedup", type=float,
                    help="fail if total speedup is below this")
    ap.add_argument("--max-slope", type=float,
                    help="fail if the fence-scaling log-log slope of "
                         "per-query covers cost exceeds this")
    ap.add_argument("--no-scaling", action="store_true",
                    help="skip the fence-population scaling sweep")
    args = ap.parse_args(argv)

    report = bench_analysis(args.ops, args.shards, args.tiles, args.repeats)
    if not args.no_scaling:
        report["scaling"] = bench_fence_scaling(shards=args.shards)
    sp = report["speedup"]
    print(f"analysis sweep: {report['config']['num_ops']} ops, "
          f"{args.shards} shards, {args.tiles} tiles")
    print(f"  analyze : naive {report['naive_s']['analyze']*1e3:8.2f} ms  "
          f"indexed {report['indexed_s']['analyze']*1e3:8.2f} ms  "
          f"speedup {sp['analyze']:.2f}x")
    print(f"  validate: naive {report['naive_s']['validate']*1e3:8.2f} ms  "
          f"indexed {report['indexed_s']['validate']*1e3:8.2f} ms  "
          f"speedup {sp['validate']:.2f}x")
    print(f"  total   : speedup {sp['total']:.2f}x   "
          f"(products identical: {report['products']['digests_match']})")
    if "scaling" in report:
        pts = " ".join(f"F={p['fences']}:{p['per_query_us']:.2f}us"
                       for p in report["scaling"]["series"])
        print(f"  scaling : {pts}  slope {report['scaling']['slope']:.3f}")

    failed = False
    if args.max_slope is not None and "scaling" in report \
            and report["scaling"]["slope"] > args.max_slope:
        print(f"FAIL: fence-scaling slope {report['scaling']['slope']:.3f} "
              f"> allowed {args.max_slope:.3f}")
        failed = True
    if not report["products"]["digests_match"]:
        print("FAIL: indexed and naive analysis products differ")
        failed = True
    if args.min_speedup is not None and sp["total"] < args.min_speedup:
        print(f"FAIL: total speedup {sp['total']:.2f}x < "
              f"required {args.min_speedup:.2f}x")
        failed = True
    if args.check_baseline:
        with open(args.check_baseline) as fh:
            base = json.load(fh)
        floor = 0.8 * base["speedup"]["total"]
        if sp["total"] < floor:
            print(f"FAIL: total speedup {sp['total']:.2f}x regressed >20% "
                  f"vs baseline {base['speedup']['total']:.2f}x "
                  f"(floor {floor:.2f}x)")
            failed = True
        else:
            print(f"baseline check: {sp['total']:.2f}x vs committed "
                  f"{base['speedup']['total']:.2f}x (floor {floor:.2f}x) OK")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
