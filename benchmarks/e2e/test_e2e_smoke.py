"""Schema and leak checks over ``run.py --smoke``.

Outside tier-1 ``testpaths`` on purpose (it forks gangs and takes ~20 s);
run it explicitly::

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402 - needs HERE on sys.path


def _resolve(doc, dotted):
    """Walk a dotted path the way ``repro.tools.bench_gate`` does."""
    node = doc
    for part in dotted.split("."):
        assert isinstance(node, dict) and part in node, dotted
        node = node[part]
    return node


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:]
    with open(out) as f:
        return json.load(f)


def test_schema(smoke):
    assert smoke["schema"] == 1
    assert set(smoke["workloads"]) == set(bench.WORKLOADS)
    for key in ("seed", "nproc", "caches", "python", "numpy", "git_commit"):
        assert key in smoke["context"]
    assert smoke["verify_extra"]["failed_frac"] == 0


def test_every_workload_emits_all_end_to_end_metrics(smoke):
    for name, entry in smoke["workloads"].items():
        for metric in bench.END_TO_END:
            value = entry[metric]
            assert isinstance(value, float) and value > 0, (name, metric)
            rounds = entry["detail"][metric]["rounds"]
            assert rounds and all(v > 0 for v in rounds), (name, metric)
        assert entry["failed_frac"] == 0, (name, entry["errors"])
        assert entry["detail"]["run_ms_p50"]["n"] >= 1


def test_every_layer_metric_is_present_or_null(smoke):
    for name in bench.WORKLOADS:
        for metric in bench.PER_LAYER:
            value = _resolve(smoke, f"workloads.{name}.{metric}")
            assert value is None or isinstance(value, (int, float)), \
                (name, metric, value)
    # mechanism / bypass sanity on the pairs the workloads were built as
    w = smoke["workloads"]
    assert w["stencil_traced"]["core"]["trace_replayed_ratio"] > 0.5
    assert w["stencil_fine"]["core"]["trace_replayed_ratio"] == 0
    assert w["service_cold_shm"]["service"]["template_hit_ratio"] == 0
    assert w["service_hit_loopback"]["service"]["template_hit_ratio"] > 0.99


def test_result_layers_are_numbers_on_every_workload(smoke):
    for name in bench.WORKLOADS:
        for metric in bench.RESULT_LAYERS:
            value = _resolve(smoke, f"workloads.{name}.{metric}")
            assert isinstance(value, (int, float)), (name, metric, value)


def test_nothing_leaks(smoke):
    for name, entry in smoke["workloads"].items():
        assert entry["dist"]["leaked_children"] == 0, name
        assert entry["dist"]["leaked_shm_segments"] == 0, name


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(bench.GATED)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in contract["end_to_end"]}
    assert e2e == bench.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"])
              for m in contract["per_layer"]}
    assert layers == {name: bench.PER_LAYER[name]
                      for name in bench.RESULT_LAYERS}
