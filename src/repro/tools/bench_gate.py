"""Benchmark regression gate: one CLI for every CI baseline check.

The CI workflow used to carry three hand-rolled copies of the same
pattern — load the committed baseline JSON, load the fresh report, fail
if a headline metric regressed more than 20% or missed an absolute
floor.  This tool is that pattern, once::

    python -m repro.tools.bench_gate \
        --baseline benchmarks/BENCH_headline.json --report fresh.json \
        --metric speedup.total \
        --max scaling.slope=0.35 \
        --require products.digests_match=true

Metric names are dotted paths into the report JSON (dict keys only, so
``fabrics.shm.4.large.mb_per_s`` addresses nested tables).  Checks:

* ``--metric PATH`` (repeatable): the report value must be at least
  ``(1 - max-regression)`` times the baseline value at the same path.
* ``--min PATH=V`` / ``--max PATH=V`` (repeatable): absolute bounds on
  report values, independent of the baseline.
* ``--require PATH=V`` (repeatable): exact equality; ``V`` is parsed as
  JSON when possible (``true``, ``1.5``) and compared as a string
  otherwise.  A bare ``--require PATH`` means "equal to the baseline's
  value at ``PATH``" — the gate for exact-repeat counts and digests.

Exit status 0 when every check passes, 1 otherwise; every check prints
one line either way so CI logs show the full scoreboard.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Tuple

__all__ = ["FROM_BASELINE", "resolve_path", "run_gate", "main"]


def resolve_path(doc: Any, path: str) -> Any:
    """Walk a dotted path through nested dicts; raises KeyError with the
    full path on a missing segment."""
    node = doc
    for seg in path.split("."):
        if not isinstance(node, dict) or seg not in node:
            raise KeyError(path)
        node = node[seg]
    return node


def _parse_bound(spec: str) -> Tuple[str, float]:
    path, _, raw = spec.partition("=")
    if not _ or not path:
        raise ValueError(f"expected PATH=VALUE, got {spec!r}")
    return path, float(raw)


#: Expected value of a bare ``--require PATH``: whatever the baseline holds.
FROM_BASELINE = object()


def _parse_require(spec: str) -> Tuple[str, Any]:
    path, eq, raw = spec.partition("=")
    if not path:
        raise ValueError(f"expected PATH or PATH=VALUE, got {spec!r}")
    if not eq:
        return path, FROM_BASELINE
    try:
        return path, json.loads(raw)
    except ValueError:
        return path, raw


def run_gate(report: dict, baseline: dict | None, metrics: List[str],
             max_regression: float, mins: List[Tuple[str, float]],
             maxs: List[Tuple[str, float]],
             requires: List[Tuple[str, Any]]) -> List[str]:
    """Run every check; returns the list of failure messages (empty means
    the gate is green).  Prints one scoreboard line per check."""
    failures: List[str] = []

    def fail(msg: str) -> None:
        print(f"FAIL: {msg}")
        failures.append(msg)

    for path in metrics:
        if baseline is None:
            fail(f"--metric {path} requires --baseline")
            continue
        try:
            ours = float(resolve_path(report, path))
        except KeyError:
            fail(f"{path} missing from report")
            continue
        try:
            theirs = float(resolve_path(baseline, path))
        except KeyError:
            fail(f"{path} missing from baseline")
            continue
        floor = (1.0 - max_regression) * theirs
        if ours < floor:
            fail(f"{path} {ours:.3f} regressed >{max_regression:.0%} vs "
                 f"baseline {theirs:.3f} (floor {floor:.3f})")
        else:
            print(f"ok: {path} {ours:.3f} vs baseline {theirs:.3f} "
                  f"(floor {floor:.3f})")

    for path, bound in mins:
        try:
            ours = float(resolve_path(report, path))
        except KeyError:
            fail(f"{path} missing from report")
            continue
        if ours < bound:
            fail(f"{path} {ours:.3f} < required minimum {bound:.3f}")
        else:
            print(f"ok: {path} {ours:.3f} >= {bound:.3f}")

    for path, bound in maxs:
        try:
            ours = float(resolve_path(report, path))
        except KeyError:
            fail(f"{path} missing from report")
            continue
        if ours > bound:
            fail(f"{path} {ours:.3f} > allowed maximum {bound:.3f}")
        else:
            print(f"ok: {path} {ours:.3f} <= {bound:.3f}")

    for path, expected in requires:
        try:
            ours = resolve_path(report, path)
        except KeyError:
            fail(f"{path} missing from report")
            continue
        if expected is FROM_BASELINE:
            if baseline is None:
                fail(f"--require {path} (no =V) requires --baseline")
                continue
            try:
                expected = resolve_path(baseline, path)
            except KeyError:
                fail(f"{path} missing from baseline")
                continue
        if ours != expected:
            fail(f"{path} is {ours!r}, required {expected!r}")
        else:
            print(f"ok: {path} == {expected!r}")

    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.tools.bench_gate",
        description="Gate a fresh benchmark report against a committed "
                    "baseline and absolute thresholds")
    ap.add_argument("--report", required=True, metavar="JSON",
                    help="fresh benchmark report to check")
    ap.add_argument("--baseline", metavar="JSON",
                    help="committed baseline (required for --metric)")
    ap.add_argument("--metric", action="append", default=[], metavar="PATH",
                    help="dotted path gated on regression vs the baseline "
                         "(repeatable)")
    ap.add_argument("--max-regression", type=float, default=0.2,
                    help="allowed fractional regression for --metric "
                         "checks (default 0.2)")
    ap.add_argument("--min", action="append", default=[], metavar="PATH=V",
                    dest="mins", help="absolute floor on a report value")
    ap.add_argument("--max", action="append", default=[], metavar="PATH=V",
                    dest="maxs", help="absolute cap on a report value")
    ap.add_argument("--require", action="append", default=[],
                    metavar="PATH[=V]",
                    help="exact-equality requirement on a report value; "
                         "without =V, equal to the baseline's value")
    args = ap.parse_args(argv)

    with open(args.report) as fh:
        report = json.load(fh)
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    try:
        mins = [_parse_bound(s) for s in args.mins]
        maxs = [_parse_bound(s) for s in args.maxs]
        requires = [_parse_require(s) for s in args.require]
    except ValueError as exc:
        ap.error(str(exc))

    failures = run_gate(report, baseline, args.metric, args.max_regression,
                        mins, maxs, requires)
    if failures:
        print(f"bench gate: {len(failures)} check(s) failed")
        return 1
    print("bench gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
