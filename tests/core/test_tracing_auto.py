"""Automatic trace identification: detector, retroactive recording,
safe fallback, and the signature fixes the subsystem exposed."""

import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                  Operation)
from repro.core.pipeline import DCRPipeline
from repro.core.sharding import CYCLIC
from repro.core.tracing import (AutoTraceConfig, TraceCache, TraceIdentifier,
                                _op_signature, auto_replay_flags)
from repro.oracle import READ_ONLY, READ_WRITE
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


def environment():
    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(16), fs, name="cells")
    owned = cells.partition_equal(4, name="owned")
    ghost = cells.partition_ghost(owned, 1, name="ghost")
    return fs, cells, owned, ghost


#: Four structurally distinct ops, by letter.
_LETTER_REQS = {
    "a": [("owned", "state", READ_WRITE)],
    "b": [("owned", "flux", READ_WRITE), ("ghost", "state", READ_ONLY)],
    "c": [("owned", "flux", READ_ONLY)],
    "d": [("ghost", "flux", READ_ONLY), ("owned", "state", READ_WRITE)],
}


def letter_op(fs, owned, ghost, letter, tag):
    parts = {"owned": owned, "ghost": ghost}
    reqs = [CoarseRequirement(parts[p], frozenset([fs[f]]), priv,
                              IDENTITY_PROJECTION)
            for p, f, priv in _LETTER_REQS[letter]]
    return Operation("task", reqs, launch_domain=[0, 1, 2, 3],
                     sharding=CYCLIC, name=f"{letter}[{tag}]")


def step_ops(fs, owned, ghost, tag):
    """One time step: an owned update, then a ghost-reading stencil."""
    return [letter_op(fs, owned, ghost, "a", tag),
            letter_op(fs, owned, ghost, "b", tag)]


def _reference_period(ids, cfg):
    """Brute force: for every period, compare the two windows outright."""
    n = len(ids)
    for w in range(cfg.min_length, cfg.max_length + 1):
        if 2 * w <= n and ids[n - w:] == ids[n - 2 * w:n - w]:
            return w
    return None


@st.composite
def _detector_cases(draw):
    alphabet = draw(st.integers(1, 8))
    min_length = draw(st.integers(1, 4))
    max_length = draw(st.integers(max(2, min_length), 8))
    word = st.lists(st.integers(0, alphabet - 1), min_size=1,
                    max_size=max_length + 1)
    stream = []
    while len(stream) <= 4 * max_length:      # long enough to cross the trim
        stream += draw(word) * draw(st.integers(1, 3))
    return AutoTraceConfig(min_length, max_length), stream


class TestTraceIdentifier:
    @settings(max_examples=300, deadline=None)
    @given(_detector_cases())
    def test_push_matches_brute_force(self, case):
        """The pre-check + slice confirm over a trimmed window answers
        exactly what comparing every candidate window of the whole stream
        does (reset after each hit, as the tracer does)."""
        cfg, stream = case
        ident, seen = TraceIdentifier(cfg), []
        for sid in stream:
            seen.append(sid)
            hit = ident.push(sid)
            assert hit == _reference_period(seen, cfg), (cfg, stream)
            if hit is not None:
                ident.reset()
                seen = []

    def test_detects_smallest_period(self):
        ident = TraceIdentifier(AutoTraceConfig(min_length=2, max_length=8))
        hits = [ident.push(s) for s in [1, 2, 1, 2]]
        assert hits == [None, None, None, 2]

    def test_min_length_filters_short_periods(self):
        ident = TraceIdentifier(AutoTraceConfig(min_length=3, max_length=8))
        assert [ident.push(s) for s in [1, 2, 1, 2]] == [None] * 4
        # ...but period 3 is reported.
        ident = TraceIdentifier(AutoTraceConfig(min_length=3, max_length=8))
        stream = [1, 2, 3, 1, 2, 3]
        assert [ident.push(s) for s in stream][-1] == 3

    def test_reset_clears_history(self):
        ident = TraceIdentifier(AutoTraceConfig(min_length=2, max_length=8))
        for s in [1, 2]:
            ident.push(s)
        ident.reset()
        assert [ident.push(s) for s in [1, 2]] == [None, None]

    def test_non_repeating_stream_never_fires(self):
        ident = TraceIdentifier(AutoTraceConfig(min_length=2, max_length=8))
        assert all(ident.push(s) is None for s in range(40))

    def test_history_trim_preserves_detection(self):
        cfg = AutoTraceConfig(min_length=2, max_length=4)
        ident = TraceIdentifier(cfg)
        # Long unique prefix forces trimming, then a repeat arrives.
        for s in range(100, 140):
            ident.push(s)
        hits = [ident.push(s) for s in [1, 2, 1, 2]]
        assert hits[-1] == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoTraceConfig(min_length=0)
        with pytest.raises(ValueError):
            AutoTraceConfig(min_length=4, max_length=2)


class TestSignatures:
    def test_missing_projection_distinct_from_identity(self):
        """Regression: `projection=None` used to encode as 0, colliding
        with IDENTITY_PROJECTION (pid 0)."""
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        with_proj = Operation(
            "task", [CoarseRequirement(owned, state, READ_WRITE,
                                       IDENTITY_PROJECTION)],
            launch_domain=[0, 1, 2, 3], sharding=CYCLIC, name="p")
        without_proj = Operation(
            "task", [CoarseRequirement(owned, state, READ_WRITE, None)],
            launch_domain=[0, 1, 2, 3], sharding=CYCLIC, name="np")
        assert IDENTITY_PROJECTION.pid == 0
        assert _op_signature(with_proj) != _op_signature(without_proj)

    def test_interning_is_stable(self):
        fs, cells, owned, ghost = environment()
        a, b = step_ops(fs, owned, ghost, 0)
        c, d = step_ops(fs, owned, ghost, 1)
        assert _op_signature(a) == _op_signature(c)
        assert _op_signature(a) != _op_signature(b)
        assert _op_signature(b) == _op_signature(d)


class TestAutoReplayFlags:
    S = [("s", i) for i in range(10)]     # distinct structured signatures

    def test_identifies_after_two_occurrences(self):
        a, b = self.S[0], self.S[1]
        stream = [a, b] * 4
        flags = auto_replay_flags(stream, AutoTraceConfig(min_length=2))
        # Occurrences 1-2 identify; 3-4 replay.
        assert flags == [False] * 4 + [True] * 4

    def test_divergence_falls_back_and_recovers(self):
        a, b, x = self.S[0], self.S[1], self.S[2]
        stream = [a, b, a, b, a, x] + [a, b] * 3
        flags = auto_replay_flags(stream, AutoTraceConfig(min_length=2))
        # The 5th op enters a replay that diverges at `x`: both analyzed
        # fresh; the fragment is evicted, then re-identified and replayed.
        assert flags[:6] == [False] * 4 + [True, False]
        assert flags[-2:] == [True, True]

    def test_no_repeats_no_replays(self):
        flags = auto_replay_flags(self.S, AutoTraceConfig(min_length=2))
        assert not any(flags)

    def test_period_one_min_length_shifts_detection(self):
        stream = [self.S[0]] * 8
        # min_length=1 identifies the singleton fragment after 2 ops...
        flags = auto_replay_flags(stream, AutoTraceConfig(min_length=1))
        assert flags == [False, False] + [True] * 6
        # ...min_length=2 still catches a constant stream, as the
        # length-2 fragment (a, a), one op later.
        flags = auto_replay_flags(stream, AutoTraceConfig(min_length=2))
        assert flags == [False] * 4 + [True] * 4


class TestModelFollowsRuntime:
    """`auto_replay_flags` drives the pipeline's own tracer and cache, so
    the cost model charges replays exactly where the runtime serves them."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["ab", "cd", "a", "c", "abc", "d"]),
                    min_size=1, max_size=12).map("".join))
    @example("ababcdcdacdcd")    # a diverging op is not re-probed as a head
    def test_flags_equal_pipeline_traced(self, stream):
        fs, _cells, owned, ghost = environment()
        ops = [letter_op(fs, owned, ghost, ch, i)
               for i, ch in enumerate(stream)]
        pipe = DCRPipeline(num_shards=2, auto_trace=True)
        served = [pipe.analyze(op).traced for op in ops]
        pipe.validate()
        assert served == auto_replay_flags([_op_signature(op) for op in ops])

    def test_diverging_op_is_analyzed_fresh(self):
        flags = auto_replay_flags(list("ababcdcdacdcd"),
                                  AutoTraceConfig(min_length=2))
        assert "".join(".T"[f] for f in flags) == "........T..TT"


class TestRetroactiveRecording:
    def test_record_then_replay(self):
        fs, _cells, owned, ghost = environment()
        pipe = DCRPipeline(num_shards=2)
        recs = [pipe.analyze(op) for op in step_ops(fs, owned, ghost, 0)]
        cache = pipe.trace_cache
        cache.record("frag", recs)
        assert cache.has_trace("frag")
        assert pipe.begin_trace("frag") is True
        for op in step_ops(fs, owned, ghost, 1):
            rec = pipe.analyze(op)
            assert rec.traced
        pipe.end_trace()
        pipe.validate()

    def test_record_retroactive_requires_idle(self):
        fs, _cells, owned, ghost = environment()
        pipe = DCRPipeline(num_shards=2)
        recs = [pipe.analyze(op) for op in step_ops(fs, owned, ghost, 0)]
        pipe.trace_cache.record(1, recs)
        assert pipe.trace_cache.begin(1) is True      # a replay is active
        with pytest.raises(RuntimeError):
            pipe.trace_cache.record("frag", recs)

    def test_abort_replay_counts_and_evicts(self):
        fs, _cells, owned, ghost = environment()
        pipe = DCRPipeline(num_shards=2)
        recs = [pipe.analyze(op) for op in step_ops(fs, owned, ghost, 0)]
        cache = pipe.trace_cache
        cache.record("frag", recs)
        pipe.begin_trace("frag")
        pipe.analyze(step_ops(fs, owned, ghost, 1)[0])
        assert cache.abort_replay(evict=True) == 1
        assert cache.active == TraceCache.IDLE
        assert not cache.has_trace("frag")
        assert cache.aborts == 1
        # Idempotent when idle.
        assert cache.abort_replay() == 0


class TestAutoTracerPipeline:
    def run_iters(self, pipe, fs, owned, ghost, n):
        for t in range(n):
            for op in step_ops(fs, owned, ghost, t):
                pipe.analyze(op)

    def test_auto_identifies_and_replays(self):
        fs, _cells, owned, ghost = environment()
        pipe = DCRPipeline(num_shards=2, auto_trace=True)
        self.run_iters(pipe, fs, owned, ghost, 6)
        assert pipe.stats.auto_traces == 1
        # Iterations 1-2 identify the period-2 fragment; 3+ replay.
        assert pipe.stats.traced_ops == 8
        pipe.validate()

    def test_auto_matches_untraced_graph(self):
        fs, _cells, owned, ghost = environment()
        auto = DCRPipeline(num_shards=2, auto_trace=True)
        self.run_iters(auto, fs, owned, ghost, 5)
        auto.validate()

        fs2, _c2, owned2, ghost2 = environment()
        plain = DCRPipeline(num_shards=2)
        self.run_iters(plain, fs2, owned2, ghost2, 5)
        plain.validate()
        assert len(auto.fine_result.graph.tasks) == \
            len(plain.fine_result.graph.tasks)
        assert auto.stats.points == plain.stats.points

    def test_auto_divergence_falls_back(self):
        fs, _cells, owned, ghost = environment()
        pipe = DCRPipeline(num_shards=2, auto_trace=True)
        self.run_iters(pipe, fs, owned, ghost, 4)
        assert pipe.stats.traced_ops > 0
        # Break the pattern mid-fragment: the next occurrence's head
        # matches, so a replay starts, then diverges on the second op.
        add = step_ops(fs, owned, ghost, 9)[0]
        divergent = Operation(
            "task",
            [CoarseRequirement(owned, frozenset([fs["flux"]]), READ_ONLY,
                               IDENTITY_PROJECTION)],
            launch_domain=[0, 1, 2, 3], sharding=CYCLIC, name="odd")
        r1 = pipe.analyze(add)
        r2 = pipe.analyze(divergent)
        assert r1.traced and not r2.traced
        assert pipe.stats.trace_fallbacks == 1
        assert pipe.trace_cache.active == TraceCache.IDLE
        # The stream keeps flowing: later repeats are re-identified.
        self.run_iters(pipe, fs, owned, ghost, 4)
        pipe.validate()
        assert pipe.stats.auto_traces >= 2

    def test_auto_stands_down_inside_explicit_traces(self):
        fs, _cells, owned, ghost = environment()
        pipe = DCRPipeline(num_shards=2, auto_trace=True)
        for t in range(4):
            pipe.begin_trace(3)
            for op in step_ops(fs, owned, ghost, t):
                pipe.analyze(op)
            pipe.end_trace()
        # All replays came from the explicit trace; none auto-identified.
        assert pipe.stats.auto_traces == 0
        assert pipe.stats.traced_ops == 6
        pipe.validate()


def test_executes_leave_nothing_behind_in_tracing():
    """ROADMAP 23: signatures carry one run's region uids, so a table that
    outlives its pipeline is pure retention.  After a warm-up, further
    auto-traced executes must leave no live allocation made by
    ``repro.core.tracing`` behind."""
    import repro.core.tracing as tracing
    from repro.runtime import Runtime

    def bump(point, arg):
        arg["x"].view[...] += 1.0

    def control(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        region = ctx.create_region(ctx.create_index_space(8), fs, "r")
        owned = ctx.partition_equal(region, 2, name="owned")
        ctx.fill(region, ["x"], 0.0)
        for _ in range(6):
            ctx.index_launch(bump, [0, 1], [(owned, "x", "rw")])
        return region

    def execute():
        rt = Runtime(num_shards=2, auto_trace=True)
        rt.execute(control)
        assert rt.pipeline.stats.traced_ops > 0

    def live_bytes():
        gc.collect()
        only = [tracemalloc.Filter(True, tracing.__file__)]
        stats = tracemalloc.take_snapshot().filter_traces(only)
        return sum(s.size for s in stats.statistics("filename"))

    execute()                                   # warm caches and imports
    tracemalloc.start()
    try:
        before = live_bytes()
        for _ in range(5):
            execute()
        grown = live_bytes() - before
    finally:
        tracemalloc.stop()
    assert grown <= 0, f"{grown} bytes retained by repro.core.tracing"
