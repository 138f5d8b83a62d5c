"""Distributed transport scaling: wall-clock throughput per fabric.

One experiment feeds the committed ``BENCH_dist.json``: a driver process
ping-pongs payloads across a gang of forked echo workers (1, 2, 4 and 8
of them) over each process fabric (shm, tcp), once with a small dict
payload and once with a large ndarray.  Reported as MB/s and rounds/s per
(fabric, workers, payload) cell.

Absolute numbers are machine noise (CI runners differ wildly; this repo
also benches on single-core boxes where process scaling is flat), so the
gate is a *ratio* measured on the same machine in the same run:

* shm must move large ndarrays at >= 1.5x the tcp fabric with 4 echo
  workers — the zero-copy receive path is the point of SharedMemFabric;
* ``--check-baseline`` fails if the ratio regresses > 20% against the
  committed report.
"""

import argparse
import json
import os
import sys
import time

DEFAULT_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "BENCH_dist.json")

#: The process fabrics, by their Runtime/DistRunner backend name.
FABRICS = ("shm", "tcp")

SMALL_ELEMS = 128          # 1 KiB float64 — below the zero-copy floor
LARGE_ELEMS = 131072       # 1 MiB float64 — zero-copy on shm
RING_BYTES = 16 * 1024 * 1024


def _make_payload(size):
    import numpy as np
    return np.arange(size, dtype=np.float64)


def _echo_main(transport, channel, workers, rounds):
    """One echo rank: a checksum back for every round addressed to us."""
    import numpy as np
    for rnd in range(rounds):
        if 1 + rnd % workers != transport.rank:
            continue
        payload = transport.recv(0, "bench", 0, rnd)
        # Touch the data so zero-copy views are actually read, then
        # drop the reference so shm ring space is reclaimed.
        ack = float(np.asarray(payload).ravel()[0])
        del payload
        transport.send(0, "bench", 1, rnd, ack)


def bench_fabric(kind, workers, elems, rounds, repeats=3, deadline_s=60.0):
    """Best-of-``repeats`` ping-pong throughput for one config cell."""
    from repro.dist.gang import Gang

    payload = _make_payload(elems)
    total = rounds + workers          # one warmup round per worker
    best = float("inf")
    extra = {"ring_bytes": RING_BYTES} if kind == "shm" else {}
    for _ in range(repeats):
        gang = Gang(kind, workers + 1, name="bench-echo",
                    deadline_s=deadline_s, **extra)
        for rank in range(1, workers + 1):
            gang.spawn(rank, _echo_main, workers, total)
        gang.release_parent(keep=0)
        transport = gang.fabric.transport(0)
        try:
            for rnd in range(workers):               # warmup, untimed
                peer = 1 + rnd % workers
                transport.send(peer, "bench", 0, rnd, payload)
                transport.recv(peer, "bench", 1, rnd)
            t0 = time.perf_counter()
            for rnd in range(workers, total):
                peer = 1 + rnd % workers
                transport.send(peer, "bench", 0, rnd, payload)
                transport.recv(peer, "bench", 1, rnd)
            best = min(best, time.perf_counter() - t0)
        finally:
            transport.close()
            gang.terminate(grace_s=deadline_s)
    moved = rounds * payload.nbytes
    return {
        "total_s": best,
        "rounds_per_s": rounds / best,
        "mb_per_s": moved / best / 1e6,
    }


def bench_dist(worker_counts=(1, 2, 4, 8), small_rounds=200,
               large_rounds=40, repeats=3):
    fabrics = {}
    for kind in FABRICS:
        fabrics[kind] = {}
        for workers in worker_counts:
            fabrics[kind][str(workers)] = {
                "small": bench_fabric(kind, workers, SMALL_ELEMS,
                                      small_rounds, repeats),
                "large": bench_fabric(kind, workers, LARGE_ELEMS,
                                      large_rounds, repeats),
            }
    report = {
        "schema": 1,
        "config": {"worker_counts": list(worker_counts),
                   "small_elems": SMALL_ELEMS, "large_elems": LARGE_ELEMS,
                   "small_rounds": small_rounds,
                   "large_rounds": large_rounds, "repeats": repeats},
        "fabrics": fabrics,
    }
    if "4" in fabrics["shm"]:
        report["shm_over_tcp_large_at_4"] = (
            fabrics["shm"]["4"]["large"]["mb_per_s"]
            / fabrics["tcp"]["4"]["large"]["mb_per_s"])
    return report


def test_dist_bench_smoke():
    """Cheap pytest entry: the fabric sweep runs and reports sane numbers."""
    cell = bench_fabric("shm", 1, SMALL_ELEMS, rounds=8, repeats=1)
    assert cell["rounds_per_s"] > 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Dist transport scaling benchmark (BENCH_dist.json)")
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8],
                    help="echo worker counts to sweep (default 1 2 4 8)")
    ap.add_argument("--small-rounds", type=int, default=200)
    ap.add_argument("--large-rounds", type=int, default=40)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--output", metavar="PATH",
                    help="write the JSON report to PATH")
    ap.add_argument("--check-baseline", metavar="PATH",
                    help="fail if a gated ratio regressed >20%% vs PATH")
    ap.add_argument("--min-shm-speedup", type=float, default=1.5,
                    help="required shm/tcp large-payload ratio at 4 "
                         "workers (default 1.5)")
    args = ap.parse_args(argv)

    report = bench_dist(tuple(args.workers), args.small_rounds,
                        args.large_rounds, args.repeats)
    for kind in FABRICS:
        for workers, cells in report["fabrics"][kind].items():
            small, large = cells["small"], cells["large"]
            print(f"{kind:5s} x{workers}: "
                  f"small {small['rounds_per_s']:9.1f} rounds/s  "
                  f"large {large['mb_per_s']:8.1f} MB/s")

    failed = False
    shm_ratio = report.get("shm_over_tcp_large_at_4")
    if shm_ratio is not None:
        print(f"shm/tcp large @4 workers: {shm_ratio:.2f}x")
        if shm_ratio < args.min_shm_speedup:
            print(f"FAIL: shm/tcp ratio {shm_ratio:.2f}x < required "
                  f"{args.min_shm_speedup:.2f}x")
            failed = True
    if args.check_baseline:
        with open(args.check_baseline) as fh:
            theirs = json.load(fh).get("shm_over_tcp_large_at_4")
        if theirs is not None and shm_ratio is not None:
            floor = 0.8 * theirs
            if shm_ratio < floor:
                print(f"FAIL: shm_over_tcp_large_at_4 {shm_ratio:.2f} "
                      f"regressed >20% vs baseline {theirs:.2f} "
                      f"(floor {floor:.2f})")
                failed = True
            else:
                print(f"baseline check: shm_over_tcp_large_at_4 "
                      f"{shm_ratio:.2f} vs committed {theirs:.2f} "
                      f"(floor {floor:.2f}) OK")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
