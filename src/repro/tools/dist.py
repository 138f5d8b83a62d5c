"""CLI: launch an N-shard gang run and print the merged report.

::

    python -m repro.tools.dist --shards 3
    python -m repro.tools.dist --shards 4 --steps 8 --tiles 16 \\
        --profile-dir out/ --verify

Runs the canonical stencil program (or a custom ``--steps``/``--tiles``
shape) as the one job of a :class:`~repro.service.gang.ServiceGang` — one
OS process per shard over the chosen fabric, or one thread per shard for
``loopback`` — merges the per-shard reports, and prints the conformance
verdict.  ``--verify``
additionally runs the serial in-process reference and checks the
distributed artifacts against it byte for byte.  ``--profile-dir`` saves a
per-shard profile plus a Chrome trace next to each.

Exit status: 0 on a conformant run, 1 on any mismatch or failure — so the
CI ``dist`` tier can gate on it directly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from ..dist import BACKENDS, merge_reports, run_reference, stencil_program
from ..dist.programs import SHARDINGS
from ..dist.worker import profile_path
from ..obs.chrome import export_chrome_trace
from ..obs.profiler import Profiler
from ..service.gang import ServiceGang

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.dist",
        description="Run the stencil demo program replicated across N "
                    "shard processes and print the merged report.")
    parser.add_argument("--shards", type=int, default=3,
                        help="number of shard processes (default 3)")
    parser.add_argument("--tiles", type=int, default=12,
                        help="tiles in the stencil region (default 12)")
    parser.add_argument("--steps", type=int, default=4,
                        help="stencil sweeps (default 4)")
    parser.add_argument("--sharding", choices=sorted(SHARDINGS),
                        default="blocked",
                        help="sharding function (default blocked)")
    parser.add_argument("--backend", choices=BACKENDS,
                        default="tcp",
                        help="transport backend: tcp = loopback TCP "
                             "sockets, shm = AF_UNIX socket pairs, "
                             "loopback = in-process threads (default tcp)")
    parser.add_argument("--batch", type=int, default=16,
                        help="determinism check window (default 16)")
    parser.add_argument("--verify", action="store_true",
                        help="also run the serial in-process reference and "
                             "compare artifacts byte for byte")
    parser.add_argument("--profile-dir", metavar="DIR", default=None,
                        help="save per-shard profiles and Chrome traces")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the merged report as JSON")
    args = parser.parse_args(argv)

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 1
    spec = stencil_program(args.tiles, steps=args.steps,
                           sharding=args.sharding)
    try:
        with ServiceGang(args.shards, backend=args.backend,
                         batch=args.batch,
                         profile_dir=args.profile_dir) as gang:
            reports = gang.run_job(spec)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.profile_dir:
        # The workers saved their profiles as the gang stopped.
        reports = [dataclasses.replace(
            r, profile_path=profile_path(args.profile_dir, r.shard))
            for r in reports]
    merged = merge_reports(reports, backend=args.backend)

    print(merged.render())
    ok = merged.conformant

    if args.verify:
        reference = run_reference(spec, args.shards)
        agree = (merged.graph_digest == reference.graph_digest
                 and merged.determinism_digest
                 == reference.determinism_digest
                 and merged.shards[0].fence_sequence
                 == reference.shards[0].fence_sequence)
        print("reference match:    " + ("yes" if agree else "NO"))
        ok = ok and agree and reference.conformant

    if args.profile_dir:
        for shard in merged.shards:
            if not shard.profile_path:
                continue
            chrome = shard.profile_path.replace(".json", "") \
                + ".chrome.json"
            export_chrome_trace(Profiler.load(shard.profile_path), chrome)
        print(f"per-shard profiles in {args.profile_dir}/ "
              f"(with .chrome.json traces)")

    if args.json:
        payload = {
            "backend": merged.backend,
            "num_shards": merged.num_shards,
            "conformant": merged.conformant,
            "mismatches": list(merged.mismatches),
            "graph_digest": merged.graph_digest,
            "determinism_digest": f"{merged.determinism_digest:032x}",
            "ops_analyzed": merged.ops_analyzed,
            "fences": merged.fences,
            "fences_elided": merged.fences_elided,
            "total_points": merged.total_points,
            "total_frames": merged.total_frames,
            "shards": [dataclasses.asdict(s) for s in merged.shards],
        }
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"merged report written to {args.json}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
