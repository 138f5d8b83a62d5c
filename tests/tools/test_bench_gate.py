"""The benchmark regression gate CLI (repro.tools.bench_gate).

One tool replaces the three copy-pasted CI baseline snippets, so its
semantics — dotted-path resolution, the regression floor, absolute
bounds, exact requirements, and exit codes — are pinned here.
"""

import json

import pytest

from repro.tools.bench_gate import (FROM_BASELINE, main, resolve_path,
                                    run_gate)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_resolve_path_walks_nested_dicts():
    doc = {"a": {"b": {"c": 1.5}}, "fabrics": {"shm": {"4": {"x": 2}}}}
    assert resolve_path(doc, "a.b.c") == 1.5
    assert resolve_path(doc, "fabrics.shm.4.x") == 2
    with pytest.raises(KeyError):
        resolve_path(doc, "a.b.missing")
    with pytest.raises(KeyError):
        resolve_path(doc, "a.b.c.deeper")


def test_metric_regression_floor():
    base = {"speedup": {"total": 10.0}}
    ok = run_gate({"speedup": {"total": 8.0}}, base, ["speedup.total"],
                  0.2, [], [], [])
    assert ok == []
    bad = run_gate({"speedup": {"total": 7.9}}, base, ["speedup.total"],
                   0.2, [], [], [])
    assert len(bad) == 1 and "regressed" in bad[0]


def test_absolute_bounds_and_requirements():
    report = {"slope": 0.4, "speedup": 3.0, "conformant": True}
    assert run_gate(report, None, [], 0.2, [("speedup", 2.0)],
                    [("slope", 0.5)], [("conformant", True)]) == []
    fails = run_gate(report, None, [], 0.2, [("speedup", 3.5)],
                     [("slope", 0.3)], [("conformant", False)])
    assert len(fails) == 3


def test_missing_paths_fail_not_crash():
    fails = run_gate({}, {}, ["nope"], 0.2, [("also.nope", 1.0)], [],
                     [("still.nope", True)])
    assert len(fails) == 3
    assert all("missing" in f for f in fails)


def test_metric_without_baseline_fails():
    fails = run_gate({"x": 1.0}, None, ["x"], 0.2, [], [], [])
    assert len(fails) == 1 and "--baseline" in fails[0]


def test_bare_require_means_equal_to_baseline(tmp_path):
    """``--require PATH`` with no ``=V`` gates exact-repeat products
    (counts, digests) against the committed baseline."""
    base = {"products": {"digest": "ab12", "fences": 1023}}
    same = {"products": {"digest": "ab12", "fences": 1023}}
    moved = {"products": {"digest": "ab12", "fences": 1024}}
    reqs = [("products.digest", FROM_BASELINE),
            ("products.fences", FROM_BASELINE)]
    assert run_gate(same, base, [], 0.2, [], [], reqs) == []
    fails = run_gate(moved, base, [], 0.2, [], [], reqs)
    assert len(fails) == 1 and "products.fences is 1024" in fails[0]
    assert "--baseline" in run_gate(same, None, [], 0.2, [], [], reqs[:1])[0]
    assert "missing from baseline" in \
        run_gate(same, {}, [], 0.2, [], [], reqs[:1])[0]
    argv = ["--baseline", _write(tmp_path, "base.json", base),
            "--report", _write(tmp_path, "moved.json", moved),
            "--require", "products.digest", "--require", "products.fences"]
    assert main(argv) == 1
    argv[3] = _write(tmp_path, "same.json", same)
    assert main(argv) == 0


def test_cli_end_to_end(tmp_path, capsys):
    base = _write(tmp_path, "base.json",
                  {"speedup": {"total": 7.0}, "scaling": {"slope": 0.06},
                   "products": {"digests_match": True}})
    good = _write(tmp_path, "good.json",
                  {"speedup": {"total": 6.5}, "scaling": {"slope": 0.08},
                   "products": {"digests_match": True}})
    argv = ["--baseline", base, "--report", good,
            "--metric", "speedup.total",
            "--max", "scaling.slope=0.35",
            "--require", "products.digests_match=true"]
    assert main(argv) == 0
    assert "all checks passed" in capsys.readouterr().out

    bad = _write(tmp_path, "bad.json",
                 {"speedup": {"total": 3.0}, "scaling": {"slope": 0.5},
                  "products": {"digests_match": False}})
    argv[3] = bad
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL:") == 3
