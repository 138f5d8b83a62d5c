"""Service throughput baseline: cold analysis vs template-hit serving.

Measures programs/sec through a persistent :class:`~repro.service
.DCRService` at N shards in two regimes on the same program stream:

* **cold** — every submission is a structurally distinct shape, so every
  one pays full replicated dependence analysis on the gang;
* **hit** — every submission after the first reuses one shape with fresh
  parameters, so all but one are served driver-side from the cached
  analysis template.

The ratio (``hit_speedup``) is the payoff of execution-template caching
(Mashayekhi et al.); the repo gates it at >= 2x, and CI additionally
fails if either throughput regresses more than 20% against the committed
``BENCH_service.json`` (relative to the same machine-independent ratio
discipline as BENCH_headline: the primary gate is the cold/hit *ratio*,
which cancels runner speed).
"""

import argparse
import json
import os
import sys
import time

DEFAULT_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "BENCH_service.json")


def _shape_stream(shapes, tiles, steps, seed):
    from repro.service.loadgen import make_shape_pool
    return make_shape_pool(shapes, tiles, steps, seed)


def bench_service(shards=3, programs=24, tiles=8, steps=2, repeats=3,
                  batch=16, backend="loopback"):
    """Best-of-``repeats`` cold and template-hit throughput at one width."""
    from repro.dist.programs import ProgramSpec
    from repro.service import DCRService
    from repro.service.loadgen import _with_fresh_params, make_shape_pool

    best_cold = float("inf")
    best_hit = float("inf")
    hits_served = 0
    conformant = True
    for rep in range(repeats):
        # Cold regime: `programs` structurally distinct shapes, no
        # possible reuse.  Distinctness comes from cells_per_tile — a
        # structural knob (it sizes every region) that leaves the op
        # stream, and hence the per-program analysis cost, unchanged, so
        # cold and hit regimes process comparable work.
        base = make_shape_pool(1, tiles, steps, seed=1000 + rep)[0]
        cold_pool = [
            ProgramSpec(tiles=base.tiles, sharding=base.sharding,
                        ops=base.ops, cells_per_tile=4 + i)
            for i in range(programs)]
        with DCRService(shards, backend=backend, batch=batch) as svc:
            session = svc.open_session("bench-cold")
            t0 = time.perf_counter()
            for spec in cold_pool:
                report = session.run(spec)
                conformant &= report.conformant
            best_cold = min(best_cold, time.perf_counter() - t0)
            assert svc.templates.hits == 0, "cold stream saw a template hit"

        # Hit regime: one shape, fresh parameters per submission.  The
        # first submission (the template-recording cold run) is excluded
        # from the timed window — steady-state serving is the claim.
        shape = make_shape_pool(1, tiles, steps, seed=2000 + rep)[0]
        with DCRService(shards, backend=backend, batch=batch) as svc:
            session = svc.open_session("bench-hit")
            report = session.run(shape)
            conformant &= report.conformant
            t0 = time.perf_counter()
            for n in range(programs):
                report = session.run(
                    _with_fresh_params(shape, 3000 + rep, n))
                conformant &= report.conformant
                if rep == 0:
                    hits_served += bool(report.template_hit)
            best_hit = min(best_hit, time.perf_counter() - t0)

    cold_tput = programs / best_cold
    hit_tput = programs / best_hit
    return {
        "schema": 1,
        "config": {"shards": shards, "programs": programs, "tiles": tiles,
                   "steps": steps, "repeats": repeats, "batch": batch,
                   "backend": backend},
        "cold": {"total_s": best_cold, "programs_per_s": cold_tput},
        "template_hit": {"total_s": best_hit, "programs_per_s": hit_tput,
                         "hits_served": hits_served},
        "hit_speedup": hit_tput / cold_tput,
        "conformant": conformant,
    }


def test_service_baseline_smoke():
    """Cheap pytest entry: the machinery runs, hits serve, artifacts agree."""
    report = bench_service(shards=2, programs=4, tiles=4, steps=1,
                           repeats=1)
    assert report["conformant"]
    assert report["template_hit"]["hits_served"] == 4
    assert report["hit_speedup"] > 1.0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Service throughput baseline (BENCH_service.json)")
    ap.add_argument("--shards", type=int, default=3)
    ap.add_argument("--programs", type=int, default=24,
                    help="submissions per regime (default 24)")
    ap.add_argument("--tiles", type=int, default=8)
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--backend", default="loopback",
                    choices=("loopback", "shm", "tcp"))
    ap.add_argument("--output", metavar="PATH",
                    help="write the JSON report to PATH")
    ap.add_argument("--check-baseline", metavar="PATH",
                    help="fail if hit_speedup regressed >20%% vs PATH")
    ap.add_argument("--min-hit-speedup", type=float, default=None,
                    help="fail if template-hit speedup is below this")
    args = ap.parse_args(argv)

    report = bench_service(args.shards, args.programs, args.tiles,
                           args.steps, args.repeats, args.batch,
                           args.backend)
    cold = report["cold"]
    hit = report["template_hit"]
    print(f"service stream: {args.programs} programs, {args.shards} shards, "
          f"{args.backend} gang")
    print(f"  cold        : {cold['total_s']*1e3:8.2f} ms  "
          f"{cold['programs_per_s']:8.1f} programs/s")
    print(f"  template hit: {hit['total_s']*1e3:8.2f} ms  "
          f"{hit['programs_per_s']:8.1f} programs/s  "
          f"({hit['hits_served']} hits served)")
    print(f"  hit speedup : {report['hit_speedup']:.2f}x   "
          f"(all conformant: {report['conformant']})")

    failed = False
    if not report["conformant"]:
        print("FAIL: a served report was not conformant")
        failed = True
    if args.min_hit_speedup is not None \
            and report["hit_speedup"] < args.min_hit_speedup:
        print(f"FAIL: hit speedup {report['hit_speedup']:.2f}x < "
              f"required {args.min_hit_speedup:.2f}x")
        failed = True
    if args.check_baseline:
        with open(args.check_baseline) as fh:
            base = json.load(fh)
        floor = 0.8 * base["hit_speedup"]
        if report["hit_speedup"] < floor:
            print(f"FAIL: hit speedup {report['hit_speedup']:.2f}x "
                  f"regressed >20% vs baseline {base['hit_speedup']:.2f}x "
                  f"(floor {floor:.2f}x)")
            failed = True
        else:
            print(f"baseline check: {report['hit_speedup']:.2f}x vs "
                  f"committed {base['hit_speedup']:.2f}x "
                  f"(floor {floor:.2f}x) OK")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
