"""The ``python -m repro.tools.prof`` CLI, end to end via ``main()``."""

import json

import pytest

from repro.tools.prof import (fence_pressure, main, render_summary,
                              run_demo, shard_summary)


@pytest.fixture(scope="module")
def demo_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("prof") / "run.trace.json")
    run_demo(path, shards=3, steps=6, tiles=3)
    return path


def test_main_summarizes_and_writes_chrome(demo_trace, tmp_path, capsys):
    chrome = str(tmp_path / "out.chrome.json")
    assert main([demo_trace, "--chrome", chrome, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "shard timeline summary" in out
    assert "control" in out                 # control-plane row
    for shard in range(3):
        assert f"\n{shard:>8}" in out       # one row per shard
    assert "headline metrics:" in out
    assert "pipeline.ops" in out
    with open(chrome) as f:
        doc = json.load(f)
    assert doc["traceEvents"]


def test_main_default_chrome_path(demo_trace, capsys):
    assert main([demo_trace]) == 0
    assert "run.trace.chrome.json" in capsys.readouterr().out


def test_main_demo_flag(tmp_path, capsys):
    trace = str(tmp_path / "demo.trace.json")
    assert main(["--demo", trace]) == 0
    out = capsys.readouterr().out
    assert "demo profile written" in out
    # Four replayed steps, folded into the epochs by one settle.
    assert "trace.replays              4" in out
    assert "trace.settles              1" in out
    assert json.load(open(trace))["format"] == "repro-profile"


def test_main_rejects_missing_and_foreign_files(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == 1
    foreign = tmp_path / "foreign.json"
    foreign.write_text("{}")
    assert main([str(foreign)]) == 1
    assert "error:" in capsys.readouterr().err


def test_shard_summary_covers_all_shards(demo_trace):
    from repro.obs import Profiler
    from repro.obs.events import CONTROL_SHARD

    profile = Profiler.load(demo_trace)
    per = shard_summary(profile)
    assert set(per) == {CONTROL_SHARD, 0, 1, 2}
    for shard, cats in per.items():
        assert all(us >= 0 for us in cats.values()), (shard, cats)


def test_fence_pressure_ranks_regions(demo_trace):
    from repro.obs import Profiler

    pressure = fence_pressure(Profiler.load(demo_trace), top=5)
    assert pressure, "halo stencil must insert fences"
    counts = [c for _r, c in pressure]
    assert counts == sorted(counts, reverse=True)


def test_render_summary_mentions_traced_demo(demo_trace):
    from repro.obs import Profiler

    text = render_summary(Profiler.load(demo_trace))
    assert "trace.replays" in text          # auto-traced demo replays
