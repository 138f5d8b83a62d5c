"""Zero-perturbation: profiling must be pure observation.

The profiler's contract (``repro.obs.profiler``) is that instrumentation is
never consulted by any decision the analysis makes — every emission sits
behind an ``if prof.enabled:`` guard and only *records*.  This module holds
that as a Hypothesis property: arbitrary random control programs, run with
profiling on and with profiling off across 1–4 shards, produce

* byte-identical region contents and reduction results,
* identical task-graph signatures (tasks and dependences),
* identical control-determinism hash streams on every shard,
* identical fence-insertion, fence-elision and epoch-scan counts,

while the profiled run *does* record a timeline and the unprofiled run
records nothing.  A companion test asserts the same for the simulated METG
sweep the benchmarks use, so the guarantee covers the sim layer too.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs import Profiler, get_profiler
from repro.obs.events import EV_TRACE_SETTLE
from repro.runtime import Runtime


def _bump(point, arg, amount):
    arg["x"].view[...] += amount


def _scale(point, arg, factor):
    arg["y"].view[...] *= factor


def _blend(point, owned, ghost):
    owned["y"].view[...] += float(ghost["x"].view.mean())


def _tile_sum(point, arg):
    return float(arg["x"].view.sum())


def make_control(script, tiles=4, cells=16, repeat=1, tail=()):
    """Control program from (op-code, value) pairs; ``repeat`` loops the
    script so auto-tracing has a repeated fragment to find, and ``tail``
    runs once after the loop."""

    def control(ctx):
        fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
        region = ctx.create_region(ctx.create_index_space(cells), fs, "r")
        owned = ctx.partition_equal(region, tiles, name="owned")
        ghost = ctx.partition_ghost(region, owned, 1, name="ghost")
        ctx.fill(region, ["x", "y"], 1.0)
        dom = list(range(tiles))
        totals = []
        for code, value in list(script) * repeat + list(tail):
            if code == 0:
                ctx.index_launch(_bump, dom, [(owned, "x", "rw")],
                                 args=(value,))
            elif code == 1:
                ctx.index_launch(_scale, dom, [(owned, "y", "rw")],
                                 args=(value,))
            elif code == 2:
                ctx.index_launch(_blend, dom,
                                 [(owned, "y", "rw"),
                                  (ghost, "x", "ro")])
            else:
                fm = ctx.index_launch(_tile_sum, dom,
                                      [(owned, "x", "ro")])
                totals.append(fm.reduce(lambda a, b: a + b))
        return region, totals

    return control


def graph_signature(rt):
    def key(task):
        return (task.op.name, task.op.seq, task.point)
    return (sorted(key(t) for t in rt.task_graph().tasks),
            sorted((key(a), key(b)) for a, b in rt.task_graph().deps))


def analysis_signature(rt):
    """Everything the analysis *decided*, as one comparable value."""
    pipe = rt.pipeline
    coarse = pipe.coarse_result
    return {
        "graph": graph_signature(rt),
        "fences": sorted((f.at_seq,
                          f.region.name if f.region is not None
                          else "<global>")
                         for f in coarse.fences),
        "fences_elided": pipe.stats.fences_elided,
        "coarse_scans": coarse.users_scanned,
        "fine_scans": sorted(pipe.fine_result.scans_per_shard.items()),
        "trace_fallbacks": pipe.stats.trace_fallbacks,
        "traced_ops": pipe.stats.traced_ops,
        "scans_saved": pipe.stats.scans_saved,
        "det_hashes": tuple(tuple(h.calls)
                            for h in rt.monitor.hashers),
        "det_checks": rt.monitor.checks_performed,
    }


def run(script, shards, auto_trace, profiler=None, repeat=3, tail=()):
    kwargs = {"profiler": profiler} if profiler is not None else {}
    rt = Runtime(num_shards=shards, auto_trace=auto_trace, **kwargs)
    region, totals = rt.execute(
        make_control(script, repeat=repeat, tail=tail))
    x = rt.store.raw(region, region.field_space["x"]).copy()
    y = rt.store.raw(region, region.field_space["y"]).copy()
    return rt, totals, x, y


scripts = st.lists(
    st.tuples(st.integers(0, 3),
              st.floats(0.5, 2.0, allow_nan=False)),
    min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(scripts, st.integers(1, 4), st.booleans())
def test_profiling_is_pure_observation(script, shards, auto_trace):
    baseline = get_profiler()
    assert not baseline.enabled, "global profiler must start disabled"
    before = len(baseline.events) + len(baseline.metrics)

    rt_off, totals_off, x_off, y_off = run(script, shards, auto_trace)
    prof = Profiler().enable()
    rt_on, totals_on, x_on, y_on = run(script, shards, auto_trace,
                                       profiler=prof)

    # Identical observable results...
    assert totals_off == totals_on
    assert np.array_equal(x_off, x_on)
    assert np.array_equal(y_off, y_on)
    # ...identical analysis decisions, down to the determinism hashes...
    assert analysis_signature(rt_off) == analysis_signature(rt_on)

    # ...while the profiled run recorded a timeline and metrics
    assert prof.events, "enabled profiler recorded nothing"
    assert prof.metrics.counters.get("pipeline.ops", 0) > 0
    # ...and the unprofiled run touched the (disabled) global not at all.
    assert len(baseline.events) + len(baseline.metrics) == before


@settings(max_examples=10, deadline=None)
@given(scripts, st.integers(2, 4))
def test_profiled_rerun_matches_itself(script, shards):
    """Two profiled runs of one program agree with each other (profiling
    does not introduce nondeterminism of its own)."""
    _rt1, t1, x1, _y1 = run(script, shards, True, Profiler().enable())
    _rt2, t2, x2, _y2 = run(script, shards, True, Profiler().enable())
    assert t1 == t2
    assert np.array_equal(x1, x2)


def test_settled_replay_runs_are_unperturbed():
    """Six back-to-back replayed fragments, then a seventh that diverges
    at its second op (one fallback), are settled in one fold before the
    diverging op is analysed: the profiled run shows that settle and
    decides exactly what the unprofiled run decides."""
    # x is only ever read, so every fragment carries its readers over.
    script = [(2, 1.0), (1, 0.5), (3, 0.0)]
    tail = [(2, 1.0), (3, 0.0), (0, 1.5)]
    rt_off, totals_off, x_off, y_off = run(script, 4, True, repeat=8,
                                           tail=tail)
    prof = Profiler().enable()
    rt_on, totals_on, x_on, y_on = run(script, 4, True, profiler=prof,
                                       repeat=8, tail=tail)
    assert totals_off == totals_on
    assert np.array_equal(x_off, x_on) and np.array_equal(y_off, y_on)
    assert analysis_signature(rt_off) == analysis_signature(rt_on)
    assert rt_on.pipeline.stats.traced_ops == 6 * 3 + 1
    assert rt_on.pipeline.stats.trace_fallbacks == 1
    settles = [args for _ph, _shard, _cat, name, _ts, _dur, args
               in prof.events if name == EV_TRACE_SETTLE]
    assert [(a["fragments"], a["partial_ops"]) for a in settles] == [(6, 1)]
    assert settles[0]["entries"] > 0
    assert prof.metrics.counters["trace.settles"] == 1
    assert prof.metrics.counters["trace.entries_folded"] == \
        settles[0]["entries"]


def test_simulated_sweep_unperturbed():
    """The benchmark-layer guarantee: a simulated METG sweep returns the
    same numbers profiled and unprofiled (simulated time is charged by the
    cost model, never by the profiler)."""
    from repro.apps import taskbench
    from repro.sim.machine import MachineSpec

    def sweep():
        m = MachineSpec("zp-cluster", nodes=4, cpus_per_node=1,
                        gpus_per_node=0)
        return [taskbench.metg(m, tracing=tr, safe=True, steps=12)
                for tr in (False, True)]

    plain = sweep()
    prof = get_profiler()
    prof.clear()
    prof.enable()
    try:
        profiled_rows = sweep()
    finally:
        prof.disable()
        prof.clear()
    assert plain == profiled_rows
