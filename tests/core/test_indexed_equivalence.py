"""Differential tests: indexed analysis vs the naive reference (ISSUE 4).

The indexed coarse/fine stages (bucketed epochs, memoized predicates,
FenceStore) are pure performance work — they must be *observationally
identical* to the plain list-scan algorithms.  These tests run both over
the same randomly generated programs, at 1–4 shards, and require:

* the same coarse dependences,
* the byte-identical fence sequence (order included — fence scope depends
  on dependence-pair discovery order, so order is observable),
* the same elision and ``users_scanned`` counters,
* the same precise point graph, edge classification, and per-shard
  point/scan attribution,
* the same answers from ``covers_cross_edge`` as from a linear fence walk,
* equal canonical digests (the determinism hash over all of the above).

Profiles (REPRO_EQUIV_PROFILE): ``dev`` (default, derandomized — tier-1
safe), ``ci`` (bigger derandomized budget), ``extended`` (randomized soak
for workflow_dispatch runs).  On failure the minimized op specs are
written to REPRO_EQUIV_ARTIFACT_DIR (if set) as JSON — rebuild the
program with ``build_ops(build_env(), specs)``.
"""

import contextlib
import inspect
import json
import os
import textwrap
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, note, settings, strategies as st

from helpers import (analysis_digest, brute_force_point_graph,
                     naive_covers_cross_edge, reachability,
                     run_naive_analysis)

from repro.core import (coarse as coarse_stage, fine as fine_stage,
                        pipeline as pipeline_module)
from repro.core.coarse import CoarseAnalysis
from repro.core.epochs import FieldState
from repro.core.fine import FineAnalysis
from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                  Operation, ProjectionFunction)
from repro.core.pipeline import DCRPipeline
from repro.core.sharding import BLOCKED, CYCLIC, HASHED
from repro.faults import FaultInjector, FaultPlan
from repro.oracle import READ_ONLY, READ_WRITE, WRITE_DISCARD, reduce_priv
from repro.regions import (FieldSpace, IndexSpace, LogicalRegion, Rect,
                           clear_region_caches)

TILES = 4
SHARDINGS = [CYCLIC, BLOCKED, HASHED]
READ_PRIVS = [READ_ONLY, reduce_priv("+"), reduce_priv("max")]
WRITE_PRIVS = [READ_WRITE, WRITE_DISCARD]

# Hypothesis budgets per test (identical-products, covers-query,
# determinism); dev matches the historical tier-1 budget.
_PROFILE = os.environ.get("REPRO_EQUIV_PROFILE", "dev")
_BUDGETS = {"dev": (60, 40, 25), "ci": (200, 120, 60),
            "extended": (800, 500, 250)}
if _PROFILE not in _BUDGETS:
    raise ValueError(f"unknown REPRO_EQUIV_PROFILE {_PROFILE!r}; "
                     f"expected one of {sorted(_BUDGETS)}")
_PRODUCT_EXAMPLES, _COVERS_EXAMPLES, _DETERMINISM_EXAMPLES = \
    _BUDGETS[_PROFILE]

_COMMON = dict(
    deadline=None,
    derandomize=_PROFILE != "extended",
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much,
                           HealthCheck.large_base_example],
)


def _dump_artifact(specs, shards, name):
    """Write the minimized falsifying program for the CI artifact upload."""
    art_dir = os.environ.get("REPRO_EQUIV_ARTIFACT_DIR")
    if not art_dir:
        return
    os.makedirs(art_dir, exist_ok=True)
    with open(os.path.join(art_dir, f"{name}.json"), "w") as f:
        json.dump({"specs": [list(s) for s in specs], "shards": shards,
                   "rebuild": "build_ops(build_env(), specs)"}, f, indent=2)
        f.write("\n")


def build_env():
    """Two region trees: a stencil-style tree and a small particle tree."""
    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(4 * TILES), fs, name="cells")
    owned = cells.partition_equal(TILES, name="owned")
    ghost = cells.partition_ghost(owned, 1, name="ghost")
    pfs = FieldSpace([("mass", "f8")])
    parts = LogicalRegion(IndexSpace.line(2 * TILES), pfs, name="parts")
    pown = parts.partition_equal(TILES, name="pown")
    return fs, cells, owned, ghost, pfs, parts, pown


def _fields(space, mask):
    names = [f.name for f in space.fields]
    picked = [space[n] for i, n in enumerate(names) if mask & (1 << i)]
    return frozenset(picked or [space[names[0]]])


def build_ops(env, specs):
    """Turn drawn op specs into a program.

    Group launches only ever write/reduce through disjoint partitions
    (``owned``/``pown``) so every generated program satisfies the
    group-launch well-formedness condition (points pairwise independent);
    reads may go through the aliased ``ghost`` partition.  Individual ops
    are unconstrained.
    """
    fs, cells, owned, ghost, pfs, parts, pown = env
    dom = list(range(TILES))
    ops = []
    for kind, sel, mask, pidx, shard in specs:
        if kind == "group":
            writes = WRITE_PRIVS[pidx % 2] if pidx < 4 else None
            if sel % 3 == 0:
                reqs = [CoarseRequirement(
                    owned, _fields(fs, mask), writes or READ_PRIVS[pidx % 3],
                    IDENTITY_PROJECTION)]
            elif sel % 3 == 1:
                reqs = [CoarseRequirement(
                    pown, _fields(pfs, 1), writes or READ_PRIVS[pidx % 3],
                    IDENTITY_PROJECTION)]
            else:
                # stencil-shaped: write owned, read ghost
                reqs = [CoarseRequirement(owned, _fields(fs, mask),
                                          READ_WRITE, IDENTITY_PROJECTION),
                        CoarseRequirement(ghost, _fields(fs, ~mask),
                                          READ_ONLY, IDENTITY_PROJECTION)]
            ops.append(Operation("task", reqs, launch_domain=dom,
                                 sharding=SHARDINGS[shard % len(SHARDINGS)],
                                 name=f"g{len(ops)}"))
        else:
            regions = [cells, owned[sel % TILES], ghost[sel % TILES],
                       parts, pown[sel % TILES]]
            region = regions[sel % len(regions)]
            space = pfs if region.tree_id == parts.tree_id else fs
            priv = (WRITE_PRIVS + READ_PRIVS)[pidx % 5]
            reqs = [CoarseRequirement(region, _fields(space, mask), priv)]
            if sel % 4 == 0:
                # Second requirement in the *other* tree: exercises the
                # multi-requirement and cross-tree fence-scope paths.
                other = parts if region.tree_id == cells.tree_id else cells
                ospace = pfs if other is parts else fs
                reqs.append(CoarseRequirement(other, _fields(ospace, 1),
                                              READ_PRIVS[pidx % 3]))
            ops.append(Operation("task", reqs, owner_shard=shard % TILES,
                                 name=f"i{len(ops)}"))
    for i, op in enumerate(ops):
        op.seq = i
    return ops


op_specs = st.lists(
    st.tuples(st.sampled_from(["group", "indiv"]), st.integers(0, 11),
              st.integers(1, 3), st.integers(0, 9), st.integers(0, 5)),
    min_size=2, max_size=12)


def run_indexed(ops, shards, clear_at=None):
    """``clear_at``: drop the region caches — and with them both class
    tables — right before that op, as a hygiene reset elsewhere in the
    process would."""
    coarse = CoarseAnalysis(shards)
    fine = FineAnalysis(shards)
    for i, op in enumerate(ops):
        if i == clear_at:
            clear_region_caches()
        coarse.analyze(op)
        fine.analyze(op)
    return coarse, fine


@contextlib.contextmanager
def tiny_class_tables(cap=2):
    """Shrink both stages' class tables so nearly every new requirement
    class resets them (the production cap is 2**20 classes)."""
    tables = (coarse_stage._CLASSES, fine_stage._CLASSES)
    for table in tables:
        table.max_classes = cap
    try:
        yield tables
    finally:
        for table in tables:
            del table.max_classes


def products(coarse, fine):
    """Everything the differential harness compares, in one tuple."""
    c, f = coarse.result, fine.result
    return (c.deps, list(c.fences), c.fences_elided, c.users_scanned,
            set(f.graph.tasks), set(f.graph.deps), f.local_edges,
            f.cross_edges, f.points_per_shard, f.scans_per_shard,
            analysis_digest(c, f))


class TestIndexedEquivalence:
    @settings(max_examples=_PRODUCT_EXAMPLES, **_COMMON)
    @given(op_specs, st.integers(1, 4))
    def test_identical_products(self, specs, shards):
        try:
            ops = build_ops(build_env(), specs)
            coarse, fine = run_indexed(ops, shards)
            ncoarse, nfine = run_naive_analysis(ops, shards)

            assert coarse.result.deps == ncoarse.result.deps
            # Byte-identical fence *sequence*: dependence-pair order
            # determines each fence's scope, so even insertion order must
            # match.
            assert coarse.result.fences == ncoarse.result.fences
            assert coarse.result.fences_elided == \
                ncoarse.result.fences_elided
            assert coarse.result.users_scanned == \
                ncoarse.result.users_scanned
            assert set(fine.result.graph.tasks) == \
                set(nfine.result.graph.tasks)
            assert set(fine.result.graph.deps) == \
                set(nfine.result.graph.deps)
            assert fine.result.local_edges == nfine.result.local_edges
            assert fine.result.cross_edges == nfine.result.cross_edges
            assert fine.result.points_per_shard == \
                nfine.result.points_per_shard
            assert fine.result.scans_per_shard == \
                nfine.result.scans_per_shard
            assert analysis_digest(coarse.result, fine.result) == \
                analysis_digest(ncoarse.result, nfine.result)
        except AssertionError:
            note(f"specs={specs!r} shards={shards}")
            _dump_artifact(specs, shards, "products_failure")
            raise

    def test_identical_products_across_class_table_resets(self):
        """Cached class ids die with the table generation: a reset landing
        between an epoch's ``add`` and a later ``match`` — from the cap,
        from a region-cache clear mid-program, or under the first argument
        of ``interned_requirements_conflict`` — must re-intern, never
        change a product."""
        bumps = [0, 0]

        @settings(max_examples=_PRODUCT_EXAMPLES, **_COMMON)
        @given(op_specs, st.integers(1, 4), st.integers(0, 11))
        def check(specs, shards, clear_at):
            try:
                ops = build_ops(build_env(), specs)
                with tiny_class_tables() as tables:
                    before = [t.gen for t in tables]
                    coarse, fine = run_indexed(ops, shards, clear_at)
                    assert fine.uncovered_cross_edges(coarse.result) == []
                    for i, t in enumerate(tables):
                        bumps[i] += t.gen - before[i]
                assert products(coarse, fine) == \
                    products(*run_naive_analysis(ops, shards))
            except AssertionError:
                note(f"specs={specs!r} shards={shards} clear_at={clear_at}")
                _dump_artifact(specs, shards, "reset_failure")
                raise

        check()
        # The resets really happened, several per program, in both stages.
        assert min(bumps) >= 3 * _PRODUCT_EXAMPLES, bumps

    @settings(max_examples=_DETERMINISM_EXAMPLES, **_COMMON)
    @given(op_specs, st.integers(1, 4), st.integers(0, 11))
    def test_reanalyzed_op_skips_its_own_entries(self, specs, shards, again):
        """The same-op guard: an op analyzed while its own users still sit
        in the epochs is matched against everyone *but* itself, with the
        naive loop's scan counts (the pipeline never does this; the index
        guards the invariant rather than assuming it)."""
        try:
            ops = build_ops(build_env(), specs)
            ops.append(ops[again % len(ops)])
            assert products(*run_indexed(ops, shards)) == \
                products(*run_naive_analysis(ops, shards))
        except AssertionError:
            note(f"specs={specs!r} shards={shards} again={again}")
            _dump_artifact(specs, shards, "reanalysis_failure")
            raise

    @settings(max_examples=_COVERS_EXAMPLES, **_COMMON)
    @given(op_specs, st.integers(2, 4))
    def test_covers_query_matches_linear_walk(self, specs, shards):
        """Every covers_cross_edge query the soundness check would issue
        answers identically through the FenceStore index and through the
        naive linear fence walk."""
        try:
            ops = build_ops(build_env(), specs)
            coarse, fine = run_indexed(ops, shards)
            fences = list(coarse.result.fences)
            queries = 0
            for prev, task in fine.result.cross_edges:
                for preq in prev.requirements:
                    for nreq in task.requirements:
                        flds = nreq.fields | preq.fields
                        assert coarse.result.covers_cross_edge(
                            prev.op.seq, task.op.seq, nreq.region, flds) == \
                            naive_covers_cross_edge(
                                fences, prev.op.seq, task.op.seq,
                                nreq.region, flds)
                        queries += 1
            # The soundness invariant itself must hold on generated
            # programs.
            assert fine.uncovered_cross_edges(coarse.result) == []
            # So must the rank-channel invariants of the fence store after
            # an arbitrary program.
            coarse.result.fences.check_invariants()
        except AssertionError:
            note(f"specs={specs!r} shards={shards}")
            _dump_artifact(specs, shards, "covers_failure")
            raise

    @settings(max_examples=_DETERMINISM_EXAMPLES, **_COMMON)
    @given(op_specs, st.integers(1, 4))
    def test_indexed_analysis_is_deterministic(self, specs, shards):
        try:
            ops = build_ops(build_env(), specs)
            c1, f1 = run_indexed(ops, shards)
            c2, f2 = run_indexed(ops, shards)
            assert analysis_digest(c1.result, f1.result) == \
                analysis_digest(c2.result, f2.result)
        except AssertionError:
            note(f"specs={specs!r} shards={shards}")
            _dump_artifact(specs, shards, "determinism_failure")
            raise


# ---------------------------------------------------------------------------
# Group-write retirement against the ground truth (ISSUE 21)
# ---------------------------------------------------------------------------

# Injective on every launch domain below (all have colours 0..3).
PROJECTIONS = [
    IDENTITY_PROJECTION,
    ProjectionFunction(7311, "rotate1", lambda p, dom: (p + 1) % 4),
    ProjectionFunction(7312, "rotate2", lambda p, dom: (p + 2) % 4),
]


def build_sliced_env():
    """Three region trees carrying the partitions a sliced array program
    makes and the generators above lack: offset rect tilings of one parent
    (the stencil's shifted views), disjoint-incomplete tilings, a nested
    tiling, a 2-D tiling with an offset interior, and unstructured point
    partitions.  Every partition of a tree has the same four colours, so
    any two of them can share a launch domain.  Returns
    ``[(field space, root, partitions), ...]``."""
    def tree(name, ispace):
        fs = FieldSpace([("state", "f8"), ("flux", "f8")])
        return fs, LogicalRegion(ispace, fs, name=name)

    def rects(region, name, bounds):
        return region.partition_by_spaces(
            {c: IndexSpace(rect=Rect(lo, hi))
             for c, (lo, hi) in bounds.items()}, name=name)

    fs, cells = tree("cells", IndexSpace.line(18))
    owned = cells.partition_equal(4, name="owned")
    interior = {c: (1 + 4 * c, 4 + 4 * c) for c in range(4)}
    line = [owned, cells.partition_ghost(owned, 1, name="ghost"),
            owned[1].partition_equal(4, name="nested"),
            rects(cells, "interior", interior),
            rects(cells, "holes", {c: (5 * c, 5 * c + 2) for c in range(4)})]
    line += [rects(cells, f"shift{d:+d}",
                   {c: (max(0, lo + d), min(17, hi + d))
                    for c, (lo, hi) in interior.items()})
             for d in (-2, -1, 1, 2)]

    gfs, grid = tree("grid", IndexSpace.from_extent(6, 6))
    gtiles = grid.partition_tiles((2, 2), name="gtiles")
    plane = [gtiles, grid.partition_ghost(gtiles, 1, name="gghost")]
    plane += [rects(grid, f"ginner{dx}{dy}",
                    {(i, j): ((dx + 2 * i, dy + 2 * j),
                              (dx + 2 * i + 1, dy + 2 * j + 1))
                     for i in range(2) for j in range(2)})
              for dx, dy in ((1, 1), (2, 1), (0, 2))]

    nfs, nodes = tree("nodes", IndexSpace(points=[(i,) for i in range(12)]))

    def points(name, groups):
        return nodes.partition_by_spaces(
            {c: IndexSpace(points=[(i,) for i in g])
             for c, g in enumerate(groups)}, name=name)

    cloud = [points("nown", [range(0, 3), range(3, 6), range(6, 9),
                             range(9, 12)]),
             points("noffset", [range(1, 4), range(4, 7), range(7, 10),
                                range(10, 12)]),
             points("nscatter", [(0, 11), (2, 9), (4, 7), (5, 6)]),
             points("nshared", [range(0, 5), range(3, 8), range(6, 11),
                                (0, 10, 11)])]
    return [(fs, cells, line), (gfs, grid, plane), (nfs, nodes, cloud)]


def build_sliced_ops(env, specs):
    """Well-formed programs over :func:`build_sliced_env`: group launches
    write only through disjoint partitions, over any non-empty part of the
    colour space and through any of :data:`PROJECTIONS`; a launch's second
    requirement names the other field, so its points stay independent."""
    ops = []
    for group, tree, part, priv, fmask, dmask, proj, shard, extra in specs:
        fs, root, parts = env[tree]
        names = [f.name for f in fs.fields]
        first = frozenset([fs[names[fmask % 2]]])
        other = frozenset([fs[names[1 - fmask % 2]]])

        def privileges(p):
            return WRITE_PRIVS + READ_PRIVS if p.disjoint else READ_PRIVS

        if group:
            p = parts[part % len(parts)]
            colors = list(p.colors)
            dom = [c for i, c in enumerate(colors) if dmask >> i & 1] \
                or colors
            projection = PROJECTIONS[proj] if root.index_space.dim == 1 \
                else IDENTITY_PROJECTION
            privs = privileges(p)
            reqs = [CoarseRequirement(p, first, privs[priv % len(privs)],
                                      projection)]
            if extra % 2:
                q = parts[extra % len(parts)]
                privs = privileges(q)
                reqs.append(CoarseRequirement(
                    q, other, privs[extra % len(privs)], projection))
            ops.append(Operation("task", reqs, launch_domain=dom,
                                 sharding=SHARDINGS[shard % len(SHARDINGS)],
                                 name=f"g{len(ops)}"))
        else:
            regions = [root] + [sub for p in parts for sub in p]
            reqs = [CoarseRequirement(
                regions[part % len(regions)],
                first | other if fmask >= 2 else first,
                (WRITE_PRIVS + READ_PRIVS)[priv])]
            if extra % 4 == 0:
                ofs, oroot, _parts = env[(tree + 1) % len(env)]
                reqs.append(CoarseRequirement(
                    oroot, frozenset([ofs["state"]]), READ_PRIVS[extra % 3]))
            ops.append(Operation("task", reqs, owner_shard=shard,
                                 name=f"i{len(ops)}"))
    for i, op in enumerate(ops):
        op.seq = i
    return ops


def sliced_specs(min_size, max_size):
    return st.lists(
        st.tuples(st.sampled_from([True, True, True, False]),
                  st.sampled_from([0, 0, 1, 2]), st.integers(0, 40),
                  st.integers(0, 4), st.integers(0, 3), st.integers(0, 15),
                  st.integers(0, 2), st.integers(0, 4), st.integers(0, 11)),
        min_size=min_size, max_size=max_size)


def epoch_snapshot(fine):
    """Who is left in the fine epochs, by program position."""
    def users(epoch):
        return {(op.seq, user.point, req)
                for b in epoch._buckets.values()
                for _index, op, user, req in b.entries}
    return {key: (users(state.read_epoch), users(state.write_epoch))
            for key, state in fine._state.items()}


class TestGroupRetirement:
    """A group write retires what its pieces jointly cover: the fine graph
    keeps the partial order of the brute-force pairwise analysis, the
    indexed stage stays byte-identical to the naive one (scan counts
    included), and every cross edge it keeps stays fence-covered."""

    @settings(max_examples=_PRODUCT_EXAMPLES, **_COMMON)
    @given(sliced_specs(3, 14), st.integers(1, 5))
    def test_fresh_analysis_matches_ground_truth(self, specs, shards):
        try:
            ops = build_sliced_ops(build_sliced_env(), specs)
            coarse, fine = run_indexed(ops, shards)
            assert products(coarse, fine) == \
                products(*run_naive_analysis(ops, shards))
            assert reachability(fine.result.graph) == \
                reachability(brute_force_point_graph(ops, shards))
            assert fine.uncovered_cross_edges(coarse.result) == []
        except AssertionError:
            note(f"specs={specs!r} shards={shards}")
            _dump_artifact(specs, shards, "retirement_failure")
            raise

    @settings(max_examples=_COVERS_EXAMPLES, **_COMMON)
    @given(sliced_specs(1, 5), sliced_specs(1, 5), sliced_specs(0, 5),
           st.integers(1, 5))
    def test_replayed_fragment_retires_like_fresh_analysis(
            self, head, body, tail, shards):
        """``head, body, body, tail`` with the second ``body`` served by an
        explicit trace replay: ``register_replayed`` leaves exactly the
        epoch state fresh analysis leaves, and whatever the precise graph
        no longer orders is ordered by the replay's entry fence."""
        specs = head + body + body + tail
        try:
            ops = build_sliced_ops(build_sliced_env(), specs)
            start, stop = len(head) + len(body), len(head) + 2 * len(body)
            traced, fresh = DCRPipeline(shards), DCRPipeline(shards)
            for i, op in enumerate(ops):
                if i in (len(head), start):
                    assert traced.begin_trace(1) == (i == start)
                traced.analyze(op)
                if i + 1 in (start, stop):
                    traced.end_trace()
                fresh.analyze(op)
            assert traced.stats.traced_ops == len(body)
            assert traced.stats.trace_fallbacks == 0
            assert epoch_snapshot(traced.fine) == epoch_snapshot(fresh.fine)
            got = reachability(traced.fine_result.graph)
            want = reachability(brute_force_point_graph(ops, shards))
            assert got <= want
            assert all(a.op.seq < start <= b.op.seq for a, b in want - got)
            traced.validate()
        except AssertionError:
            note(f"specs={specs!r} shards={shards} replayed=[{start},{stop})")
            _dump_artifact(specs, shards, "replay_retirement_failure")
            raise


# ---------------------------------------------------------------------------
# Replays folded per run against the eager, per-op fold (ISSUE 22)
# ---------------------------------------------------------------------------

class EagerPipeline(DCRPipeline):
    """The fold as it was before replays were settled per run: every
    replayed op enters the epochs the moment it is served."""

    def _integrate_replay(self, *served):
        record = super()._integrate_replay(*served)
        self.settle()
        return record


def ordered_snapshot(stage):
    """Who is left in a stage's epochs, by program position and in each
    epoch's insertion order (the coarse stage observes it) — after checking
    the counters every epoch keeps against the entries it holds."""
    def users(epoch):
        held = sorted((e for b in epoch._buckets.values() for e in b.entries),
                      key=lambda e: e[0])
        assert all(b.entries and len(b.users) == len(b.entries)
                   for b in epoch._buckets.values())
        assert epoch._size == len(epoch) == len(held)
        assert epoch._reduce_size == sum(
            len(b.entries) for b in epoch._buckets.values() if b.is_reduce)
        assert epoch._members == {(user, req) for _i, _op, user, req in held}
        assert epoch._op_counts == Counter(id(op) for _i, op, _u, _r in held)
        return [(op.seq, getattr(user, "point", None), req)
                for _index, op, user, req in held]
    return {key: (users(state.read_epoch), users(state.write_epoch))
            for key, state in stage._state.items()}


def record_key(record):
    """What an op's analysis produced, by program position."""
    return (record.op.seq, record.traced, record.coarse_scans,
            record.fine_scans, record.fences_elided, record.scans_saved,
            [(f.at_seq, f.region, f.fields) for f in record.fences],
            sorted((a.seq, b.seq) for a, b in record.coarse_deps),
            sorted((a.op.seq, repr(a.point), repr(b.point))
                   for a, b in record.in_edges))


def replay_program(head, body, tail, k, explicit, cut, fence_at, bracket_at):
    """The script of ``head + body × k + tail`` as ``(action, argument)``
    steps: under ``explicit`` every body sits in ``begin_trace(1)`` /
    ``end_trace()``; ``cut = j`` ends the last body after ``j`` ops with an
    op no recording holds (a truncation and a divergence in one);
    ``fence_at = (i, j)`` lands an execution fence before op ``j`` of body
    ``i``; ``bracket_at = i`` puts bodies ``i`` and ``i + 1`` of an
    automatic run inside an explicit trace of their own."""
    env = build_sliced_env()
    ops = build_sliced_ops(env, head + body * k + tail)
    n = len(body)
    script = [("op", op) for op in ops[:len(head)]]
    for i in range(k):
        chunk = ops[len(head) + i * n:len(head) + (i + 1) * n]
        last = cut is not None and i == k - 1
        steps = [("op", op) for op in (chunk[:cut] if last else chunk)]
        if fence_at is not None and fence_at[0] == i:
            steps.insert(min(fence_at[1], len(steps)), ("fence", None))
        if last:
            _fs, root, _parts = env[0]
            steps.append(("op", Operation(
                "diverge", [CoarseRequirement(
                    root, frozenset(root.field_space.fields), READ_WRITE)],
                name="diverge")))
        if explicit or bracket_at in (i, i - 1):
            steps = [("begin", 1 if explicit else 7)] + steps + [("end", None)]
        script += steps
    return script + [("op", op) for op in ops[len(head) + k * n:]]


def run_script(pipeline, script, traced=True):
    for action, arg in script:
        if action == "op":
            pipeline.analyze(arg)
        elif action == "fence":
            pipeline.note_external_fence()
        elif traced and action == "begin":
            pipeline.begin_trace(arg)
        elif traced:
            pipeline.end_trace()
    pipeline.validate()


def check_replayed_loop(head, body, tail, k, shards, variant, explicit, at,
                        cls=DCRPipeline):
    """``head + body × (k + warm-up) + tail`` through a ``cls`` pipeline, an
    eager one and a trace-free one: all three must leave the same epochs,
    and produce the same records.  ``k`` bodies are served by replay when
    nothing disturbs the loop — the warm-up is what a recording is cut
    from: one body under an explicit trace, two under the repeat detector.
    ``variant`` disturbs it at body ``at[0]``, position ``at[1]`` (both
    wrapped into range); see :func:`replay_program`."""
    explicit = explicit and variant != "bracket"
    n, bodies = len(body), k + (1 if explicit else 2)
    i, j = at[0] % bodies, at[1]
    script = replay_program(
        head, body, tail, bodies, explicit,
        cut=j % n if variant == "cut" else None,
        fence_at=(i, j % (n + 1)) if variant == "fence" else None,
        bracket_at=i if variant == "bracket" else None)

    def make(pipeline):
        plan = FaultPlan(seed=k, trace_corruptions=[0]
                         if variant == "corrupt" else [])
        return pipeline(shards, auto_trace=not explicit,
                        injector=FaultInjector(plan))
    lazy, eager, plain = make(cls), make(EagerPipeline), DCRPipeline(shards)
    run_script(lazy, script)
    run_script(eager, script)
    run_script(plain, script, traced=False)
    assert lazy.stats == eager.stats
    assert [record_key(r) for r in lazy.records] == \
        [record_key(r) for r in eager.records]
    assert analysis_digest(lazy.coarse_result, lazy.fine_result) == \
        analysis_digest(eager.coarse_result, eager.fine_result)
    assert lazy.coarse_result.ops_analyzed == len(lazy.records)
    for stage in ("coarse", "fine"):
        want = ordered_snapshot(getattr(plain, stage))
        assert ordered_snapshot(getattr(eager, stage)) == want
        assert ordered_snapshot(getattr(lazy, stage)) == want
    # Fresh ops read the settled epochs: same in-edges, fences and scan
    # counts as analysis that never traced anything.
    assert [record_key(r) for r in lazy.records if not r.traced] == \
        [record_key(p) for r, p in zip(lazy.records, plain.records)
         if not r.traced]
    return lazy


def _mutant(fn, old, new):
    """``fn`` recompiled with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__qualname__} no longer has {old!r}"
    scope = dict(vars(pipeline_module))
    exec(source.replace(old, new), scope)
    return scope[fn.__name__]


def _settle_without_retirement(self):
    with mock.patch.object(FieldState, "retire", lambda *a, **kw: None):
        DCRPipeline.settle(self)


# name -> the methods a pipeline with that seeded fault overrides.
SETTLE_MUTATIONS = {
    "carry used for the last fragment": dict(settle=_mutant(
        DCRPipeline.settle, "< full - 1:", "< full:")),
    "R not applied": dict(settle=_settle_without_retirement),
    "a partial prefix dropped": dict(settle=_mutant(
        DCRPipeline.settle, "range(-(-len(run) // n))", "range(full)")),
    "settle() skipped before a fresh op": dict(analyze=_mutant(
        DCRPipeline.analyze, "if self._run:", "if False:")),
}

VARIANTS = ["clean", "cut", "fence", "bracket", "corrupt"]

# A stencil step (owned written under ghost reads, then flux from state)
# between a fill and a root read-back; the tail re-enters the loop's first
# op, so the program ends inside a partial fragment.
_FILL = (False, 0, 0, 0, 2, 0, 0, 0, 1)
_SWEEP = (True, 0, 0, 0, 0, 15, 0, 0, 1)
_FLUX = (True, 0, 0, 0, 1, 15, 0, 1, 3)
_READ = (False, 0, 0, 2, 2, 0, 0, 1, 1)


def stencil_loops(cls):
    """Every variant of the stencil loop at every length up to 7 replayed
    bodies through ``cls``; yields whether each came out right."""
    for k in range(1, 8):
        for variant in VARIANTS:
            for explicit in (False, True):
                for at in ((2 + k // 2, 1), (k + 1, 2)):
                    try:
                        check_replayed_loop(
                            [_FILL], [_SWEEP, _FLUX], [_READ, _SWEEP], k, 4,
                            variant, explicit, at, cls)
                    except (AssertionError, KeyError):
                        yield False
                    else:
                        yield True


class TestSettledReplayRuns:
    """A run of back-to-back replays is folded into the epochs once, by
    ``DCRPipeline.settle``; what it leaves — both stages, insertion order
    included — and what every later op then finds must be what the per-op
    fold left, and what analysis without any tracing leaves."""

    @settings(max_examples=_COVERS_EXAMPLES, **_COMMON)
    @given(sliced_specs(0, 3), sliced_specs(1, 4), sliced_specs(0, 4),
           st.integers(1, 7), st.integers(1, 4), st.sampled_from(VARIANTS),
           st.sampled_from([False, False, True]),
           st.tuples(st.integers(0, 8), st.integers(0, 4)))
    def test_settled_state_matches_trace_free_analysis(
            self, head, body, tail, k, shards, variant, explicit, at):
        try:
            check_replayed_loop(head, body, tail, k, shards, variant,
                                explicit, at)
        except AssertionError:
            note(f"specs={head!r}+{body!r}*({k}+warm-up)+{tail!r} "
                 f"shards={shards}")
            _dump_artifact(head + body + tail, shards, "settle_failure")
            raise

    def test_stencil_loops_of_every_length_and_variant(self):
        assert all(stencil_loops(DCRPipeline))

    @pytest.mark.parametrize("name", SETTLE_MUTATIONS)
    def test_seeded_settle_mutation_is_caught(self, name):
        mutant = type("Mutant", (DCRPipeline,), SETTLE_MUTATIONS[name])
        assert not all(stencil_loops(mutant))
