"""Theorem 1: DEP_rep produces exactly DEP_seq's task graph (paper §2).

The property-based tests build random programs — random task groups over
random region footprints with random privileges and shard assignments — and
drive the replicated analysis through random interleavings of shard
transitions.  Every maximal execution must yield the sequential graph.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.semantics import (ModelTask, ReplicatedAnalysis, TaskGroup,
                                  sequential_analysis)
from repro.oracle import (DependenceOracle, READ_ONLY, READ_WRITE,
                          RegionRequirement, reduce_priv)
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


def build_environment(num_tiles=4):
    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(num_tiles * 4), fs, name="cells")
    owned = cells.partition_equal(num_tiles)
    ghost = cells.partition_ghost(owned, 1)
    return fs, cells, owned, ghost


PRIVS = [READ_ONLY, READ_WRITE, reduce_priv("+")]


@st.composite
def random_programs(draw, max_groups=6, num_tiles=4, num_shards=3):
    """A random well-formed program: groups of pairwise-independent tasks.

    Each group launches one task per tile over one partition with one
    privilege and field — mirroring how group launches arise in practice
    and guaranteeing pairwise independence for disjoint partitions; ghost
    groups use READ_ONLY (aliased tiles are independent only when reading).
    """
    fs, _cells, owned, ghost = build_environment(num_tiles)
    fields = [fs["state"], fs["flux"]]
    groups = []
    n_groups = draw(st.integers(1, max_groups))
    for _ in range(n_groups):
        use_ghost = draw(st.booleans())
        field = fields[draw(st.integers(0, 1))]
        if use_ghost:
            priv = READ_ONLY
            part = ghost
        else:
            priv = PRIVS[draw(st.integers(0, len(PRIVS) - 1))]
            part = owned
        tasks = []
        for tile in range(num_tiles):
            owner = draw(st.integers(0, num_shards - 1))
            tasks.append(ModelTask(
                [RegionRequirement(part[tile], field, priv)], owner=owner))
        groups.append(TaskGroup(tasks))
    return groups, num_shards


class TestTheorem1:
    @settings(max_examples=60, deadline=None)
    @given(random_programs(), st.integers(0, 2 ** 31))
    def test_replicated_equals_sequential(self, prog_shards, seed):
        program, num_shards = prog_shards
        oracle = DependenceOracle()
        for tg in program:
            tg.validate()
        seq_graph = sequential_analysis(program, oracle)
        rep = ReplicatedAnalysis(program, num_shards, oracle)
        rep_graph = rep.run(random.Random(seed))
        assert rep_graph == seq_graph

    @settings(max_examples=25, deadline=None)
    @given(random_programs(max_groups=4, num_shards=2),
           st.lists(st.integers(0, 10), min_size=0, max_size=200))
    def test_adversarial_schedules(self, prog_shards, picks):
        """Drive the analysis with an arbitrary (hypothesis-chosen) schedule
        instead of a uniform random one."""
        program, num_shards = prog_shards
        oracle = DependenceOracle()
        seq_graph = sequential_analysis(program, oracle)
        rep = ReplicatedAnalysis(program, num_shards, oracle)
        it = iter(picks)

        def schedule(choices):
            try:
                k = next(it)
            except StopIteration:
                k = 0
            return choices[k % len(choices)]

        assert rep.run(schedule=schedule) == seq_graph

    def test_single_shard_degenerates_to_sequential(self):
        fs, _cells, owned, _ghost = build_environment()
        oracle = DependenceOracle()
        program = [
            TaskGroup([ModelTask(
                [RegionRequirement(owned[i], fs["state"], READ_WRITE)],
                owner=0) for i in range(4)])
            for _ in range(3)
        ]
        seq = sequential_analysis(program, oracle)
        rep = ReplicatedAnalysis(program, 1, oracle).run()
        assert rep == seq
        # Three rounds of per-tile writers: each tile contributes the three
        # ordered pairs of its chain (the formal model keeps transitive
        # dependences; pruning them is an implementation optimization, §2).
        assert len(seq.deps) == 4 * 3

    def test_many_shards_few_tasks(self):
        """More shards than tasks: idle shards must still drain."""
        fs, _cells, owned, _ghost = build_environment()
        oracle = DependenceOracle()
        program = [TaskGroup([ModelTask(
            [RegionRequirement(owned[0], fs["state"], READ_WRITE)],
            owner=0)])] * 2
        rep = ReplicatedAnalysis(program, 8, oracle)
        graph = rep.run()
        assert graph == sequential_analysis(program, oracle)


class TestWellFormedness:
    def test_unassigned_owner_rejected(self):
        fs, _cells, owned, _ghost = build_environment()
        t = ModelTask([RegionRequirement(owned[0], fs["state"], READ_WRITE)])
        with pytest.raises(ValueError):
            ReplicatedAnalysis([TaskGroup([t])], 2, DependenceOracle())

    def test_out_of_range_owner_rejected(self):
        fs, _cells, owned, _ghost = build_environment()
        t = ModelTask([RegionRequirement(owned[0], fs["state"], READ_WRITE)],
                      owner=5)
        with pytest.raises(ValueError):
            ReplicatedAnalysis([TaskGroup([t])], 2, DependenceOracle())

    def test_group_independence_validation(self):
        fs, cells, owned, _ghost = build_environment()
        conflicting = TaskGroup([
            ModelTask([RegionRequirement(cells, fs["state"], READ_WRITE)],
                      owner=0),
            ModelTask([RegionRequirement(owned[0], fs["state"], READ_WRITE)],
                      owner=1),
        ])
        with pytest.raises(ValueError):
            conflicting.validate()

    def test_duplicate_task_rejected(self):
        fs, _cells, owned, _ghost = build_environment()
        t = ModelTask([RegionRequirement(owned[0], fs["state"], READ_ONLY)],
                      owner=0)
        with pytest.raises(ValueError):
            TaskGroup([t, t])

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedAnalysis([], 0, DependenceOracle())


class TestTransitionRules:
    def test_tc_fires_for_independent_group(self):
        fs, _cells, owned, _ghost = build_environment()
        oracle = DependenceOracle()
        program = [TaskGroup([ModelTask(
            [RegionRequirement(owned[i], fs["state"], READ_WRITE)], owner=0)
            for i in range(4)])]
        rep = ReplicatedAnalysis(program, 2, oracle)
        enabled = dict(rep.enabled())
        assert enabled[0] == rep.TC and enabled[1] == rep.TC

    def test_ta_then_tb_for_dependent_group(self):
        fs, _cells, owned, _ghost = build_environment()
        oracle = DependenceOracle()
        g1 = TaskGroup([ModelTask(
            [RegionRequirement(owned[0], fs["state"], READ_WRITE)], owner=0)])
        g2 = TaskGroup([ModelTask(
            [RegionRequirement(owned[0], fs["state"], READ_WRITE)], owner=1)])
        rep = ReplicatedAnalysis([g1, g2], 2, oracle)
        # Shard 1 analyzes g1 (not its task: Tc), then g2's dependence on
        # g1's task requires Ta followed by Tb once shard 0 completes g1.
        assert rep.step(1) == rep.TC     # g1 on shard 1
        assert rep.step(1) == rep.TA     # records outstanding dep for g2
        # Tb is blocked until shard 0 completes g1's analysis.
        assert (1, rep.TB) not in rep.enabled()
        assert rep.step(0) == rep.TC     # g1 on shard 0 (owner of the task)
        assert rep.step(1) == rep.TB
        rep.run()
        assert rep.quiescent

    def test_step_on_idle_shard_raises(self):
        fs, _cells, owned, _ghost = build_environment()
        oracle = DependenceOracle()
        program = [TaskGroup([ModelTask(
            [RegionRequirement(owned[0], fs["state"], READ_WRITE)],
            owner=0)])]
        rep = ReplicatedAnalysis(program, 2, oracle)
        rep.run()
        with pytest.raises(ValueError):
            rep.step(0)

    def test_wrong_rule_request_raises(self):
        fs, _cells, owned, _ghost = build_environment()
        oracle = DependenceOracle()
        program = [TaskGroup([ModelTask(
            [RegionRequirement(owned[0], fs["state"], READ_WRITE)],
            owner=0)])]
        rep = ReplicatedAnalysis(program, 1, oracle)
        with pytest.raises(ValueError):
            rep.step(0, rule=rep.TB)


class TestLemma3Commutation:
    """Appendix A, Lemma 3: adjacent transitions of two different shards
    commute when the later-fired one analyzes an earlier-or-equal program
    position — the reordering that drives the Theorem 1 proof."""

    def _snapshot(self, rep):
        return (
            tuple((tuple(id(g) for g in s.remaining),
                   frozenset(t.uid for t in s.completed),
                   frozenset((a.uid, b.uid) for a, b in s.outstanding))
                  for s in rep.shards),
            frozenset(t.uid for t in rep.graph.tasks),
            frozenset((a.uid, b.uid) for a, b in rep.graph.deps),
        )

    @settings(max_examples=40, deadline=None)
    @given(random_programs(max_groups=4, num_shards=3),
           st.integers(0, 2 ** 31), st.integers(0, 30))
    def test_adjacent_swaps_commute(self, prog_shards, seed, prefix_len):
        import copy

        program, num_shards = prog_shards
        oracle = DependenceOracle()

        def fresh():
            return ReplicatedAnalysis(program, num_shards, oracle)

        # Drive a random prefix, then look for two adjacent enabled
        # transitions on different shards with the dist ordering of the
        # lemma (the shard firing second is at an earlier-or-equal program
        # position, measured by completed-group count).
        rng = random.Random(seed)
        steps = []
        probe = fresh()
        for _ in range(prefix_len):
            if probe.quiescent:
                break
            choice = rng.choice(probe.enabled())
            steps.append(choice)
            probe.step(*choice)
        if probe.quiescent:
            return
        enabled = probe.enabled()
        pairs = [(a, b) for a in enabled for b in enabled
                 if a[0] != b[0]
                 and len(probe.shards[a[0]].completed)
                 >= len(probe.shards[b[0]].completed)]
        if not pairs:
            return
        first, second = pairs[0]

        def replay(order):
            rep = fresh()
            for s in steps:
                rep.step(*s)
            for s in order:
                rep.step(s[0])
            return rep

        ab = replay([first, second])
        ba = replay([second, first])
        assert self._snapshot(ab) == self._snapshot(ba)
