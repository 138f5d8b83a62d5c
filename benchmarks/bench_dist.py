"""Distributed transport scaling: wall-clock throughput per fabric.

Two experiments feed the committed ``BENCH_dist.json``:

* **fabric sweep** — a driver process ping-pongs payloads across a gang
  of forked echo workers (1, 2, 4 and 8 of them) over each process
  fabric (shm, tcp), once with a small dict payload and once with
  a large ndarray.  Reported as MB/s and rounds/s per (fabric, workers, payload)
  cell.
* **monitor coalescing** — two loopback ranks each drive a rank-local
  :class:`~repro.core.determinism.DeterminismMonitor` at window batch 8
  with ``coalesce`` 1 vs 8 and count the control frames actually put on
  the wire.

Absolute numbers are machine noise (CI runners differ wildly; this repo
also benches on single-core boxes where process scaling is flat), so the
gates are *ratios* measured on the same machine in the same run:

* shm must move large ndarrays at >= 1.5x the tcp fabric with 4 echo
  workers — the zero-copy receive path is the point of SharedMemFabric;
* coalescing at 8 must cut monitor wire frames by >= 4x;
* ``--check-baseline`` fails if either ratio regresses > 20% against the
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


def bench_coalesce(calls=512, batch=8, repeats=3):
    """Monitor wire frames and wall time, coalesce=1 vs coalesce=8."""
    import threading

    from repro.core.determinism import DeterminismMonitor
    from repro.dist.collectives import DistCollectives
    from repro.dist.transport import LoopbackFabric

    def one_run(coalesce):
        fabric = LoopbackFabric(2, deadline_s=30.0)
        transports = [fabric.transport(r) for r in range(2)]
        errors = []

        def runner(rank):
            monitor = DeterminismMonitor(
                2, batch=batch, localize=True, coalesce=coalesce,
                collectives=DistCollectives(transports[rank]))
            hasher = monitor.hasher(rank)
            try:
                for i in range(calls):
                    hasher.record("launch", "task", i)
                    monitor.maybe_check()
                monitor.flush()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=runner, args=(r,), daemon=True)
                   for r in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        elapsed = time.perf_counter() - t0
        assert not errors, errors
        return sum(tp.frames_sent for tp in transports), elapsed

    plain_frames, plain_s = one_run(1)
    coalesced_frames = None
    best_s = float("inf")
    for _ in range(repeats):
        coalesced_frames, elapsed = one_run(8)
        best_s = min(best_s, elapsed)
    return {
        "calls": calls,
        "batch": batch,
        "plain_frames": plain_frames,
        "coalesced_frames": coalesced_frames,
        "plain_s": plain_s,
        "coalesced_s": best_s,
        "frame_reduction": plain_frames / coalesced_frames,
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
    coalesce = bench_coalesce()
    report = {
        "schema": 1,
        "config": {"worker_counts": list(worker_counts),
                   "small_elems": SMALL_ELEMS, "large_elems": LARGE_ELEMS,
                   "small_rounds": small_rounds,
                   "large_rounds": large_rounds, "repeats": repeats},
        "fabrics": fabrics,
        "coalesce": coalesce,
    }
    if "4" in fabrics["shm"]:
        report["shm_over_tcp_large_at_4"] = (
            fabrics["shm"]["4"]["large"]["mb_per_s"]
            / fabrics["tcp"]["4"]["large"]["mb_per_s"])
    return report


def test_dist_bench_smoke():
    """Cheap pytest entry: both experiments run and report sane numbers."""
    cell = bench_fabric("shm", 1, SMALL_ELEMS, rounds=8, repeats=1)
    assert cell["rounds_per_s"] > 0
    coalesce = bench_coalesce(calls=64, batch=8, repeats=1)
    assert coalesce["frame_reduction"] >= 4.0


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
    ap.add_argument("--min-frame-reduction", type=float, default=4.0,
                    help="required monitor frame reduction at coalesce 8 "
                         "(default 4.0)")
    args = ap.parse_args(argv)

    report = bench_dist(tuple(args.workers), args.small_rounds,
                        args.large_rounds, args.repeats)
    for kind in FABRICS:
        for workers, cells in report["fabrics"][kind].items():
            small, large = cells["small"], cells["large"]
            print(f"{kind:5s} x{workers}: "
                  f"small {small['rounds_per_s']:9.1f} rounds/s  "
                  f"large {large['mb_per_s']:8.1f} MB/s")
    coalesce = report["coalesce"]
    print(f"monitor frames @batch {coalesce['batch']}: "
          f"{coalesce['plain_frames']} plain vs "
          f"{coalesce['coalesced_frames']} coalesced "
          f"({coalesce['frame_reduction']:.1f}x fewer)")

    failed = False
    shm_ratio = report.get("shm_over_tcp_large_at_4")
    if shm_ratio is not None:
        print(f"shm/tcp large @4 workers: {shm_ratio:.2f}x")
        if shm_ratio < args.min_shm_speedup:
            print(f"FAIL: shm/tcp ratio {shm_ratio:.2f}x < required "
                  f"{args.min_shm_speedup:.2f}x")
            failed = True
    if coalesce["frame_reduction"] < args.min_frame_reduction:
        print(f"FAIL: frame reduction {coalesce['frame_reduction']:.1f}x "
              f"< required {args.min_frame_reduction:.1f}x")
        failed = True
    if args.check_baseline:
        with open(args.check_baseline) as fh:
            base = json.load(fh)
        for key, ours in (
                ("shm_over_tcp_large_at_4", shm_ratio),
                ("frame_reduction", coalesce["frame_reduction"])):
            theirs = base.get(key, base.get("coalesce", {}).get(key))
            if theirs is None or ours is None:
                continue
            floor = 0.8 * theirs
            if ours < floor:
                print(f"FAIL: {key} {ours:.2f} regressed >20% vs "
                      f"baseline {theirs:.2f} (floor {floor:.2f})")
                failed = True
            else:
                print(f"baseline check: {key} {ours:.2f} vs committed "
                      f"{theirs:.2f} (floor {floor:.2f}) OK")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
