"""Dependent partitioning operators (the [49, 50] substrate)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.regions import (FieldSpace, IndexSpace, LogicalRegion,
                           partition_by_field, partition_by_image,
                           partition_by_preimage)


@pytest.fixture
def graph():
    """A tiny circuit-like graph: 8 nodes, 6 wires with endpoints."""
    nfs = FieldSpace([("v", "f8")])
    wfs = FieldSpace([("i", "f8")])
    nodes = LogicalRegion(IndexSpace.line(8), nfs, name="nodes")
    wires = LogicalRegion(IndexSpace.line(6), wfs, name="wires")
    #            w0      w1      w2      w3      w4      w5
    endpoints = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 0)]
    wire_tiles = wires.partition_equal(2)      # {w0,w1,w2} and {w3,w4,w5}
    return nodes, wires, endpoints, wire_tiles


class TestPartitionByField:
    def test_colors_points(self):
        fs = FieldSpace([("c", "i8")])
        r = LogicalRegion(IndexSpace.line(10), fs, name="r")
        part = partition_by_field(r, ["even", "odd"],
                                  lambda p: "even" if p[0] % 2 == 0
                                  else "odd")
        assert part.disjoint
        assert part["even"].index_space.point_set() == \
            {(0,), (2,), (4,), (6,), (8,)}
        assert part["odd"].index_space.volume == 5

    def test_unlisted_colors_dropped(self):
        fs = FieldSpace([("c", "i8")])
        r = LogicalRegion(IndexSpace.line(9), fs, name="r")
        part = partition_by_field(r, [0, 1], lambda p: p[0] % 3)
        total = sum(s.index_space.volume for s in part)
        assert total == 6        # points with color 2 land nowhere
        assert not part.complete

    @settings(max_examples=30)
    @given(st.integers(2, 5), st.integers(4, 20))
    def test_always_disjoint_function_of_point(self, k, n):
        fs = FieldSpace([("c", "i8")])
        r = LogicalRegion(IndexSpace.line(n), fs)
        part = partition_by_field(r, list(range(k)), lambda p: p[0] % k)
        assert part.disjoint and part.complete


class TestPartitionByImage:
    def test_image_is_touched_nodes(self, graph):
        nodes, _wires, endpoints, wire_tiles = graph
        image = partition_by_image(nodes, wire_tiles,
                                   lambda w: endpoints[w[0]])
        assert image[0].index_space.point_set() == \
            {(0,), (1,), (2,), (3,)}
        assert image[1].index_space.point_set() == \
            {(4,), (5,), (6,), (0,)}
        # Node 0 is touched by both pieces: aliased.
        assert not image.disjoint

    def test_out_of_bounds_pointers_ignored(self, graph):
        nodes, _wires, _eps, wire_tiles = graph
        image = partition_by_image(nodes, wire_tiles, lambda w: [(99,)])
        assert all(s.index_space.empty for s in image)

    def test_image_subset_of_dest(self, graph):
        nodes, _wires, endpoints, wire_tiles = graph
        image = partition_by_image(nodes, wire_tiles,
                                   lambda w: endpoints[w[0]])
        for sub in image:
            assert sub.index_space.point_set() <= \
                nodes.index_space.point_set()


class TestPartitionByPreimage:
    def test_preimage_is_pointing_wires(self, graph):
        nodes, wires, endpoints, _wt = graph
        node_tiles = nodes.partition_equal(2)   # {0..3}, {4..7}
        pre = partition_by_preimage(wires, node_tiles,
                                    lambda w: endpoints[w[0]])
        # Wires touching nodes 0-3: w0, w1, w2, w5 (6->0).
        assert pre[0].index_space.point_set() == {(0,), (1,), (2,), (5,)}
        # Wires touching nodes 4-7: w3, w4, w5.
        assert pre[1].index_space.point_set() == {(3,), (4,), (5,)}
        assert not pre.disjoint                 # w5 is in both

    def test_single_valued_pointer_disjoint(self, graph):
        nodes, wires, endpoints, _wt = graph
        node_tiles = nodes.partition_equal(2)
        pre = partition_by_preimage(wires, node_tiles,
                                    lambda w: [endpoints[w[0]][0]])
        assert pre.disjoint


class TestRuntimeIntegration:
    def test_image_partition_under_replication(self, graph):
        """The circuit idiom: ghost nodes = image of local wires, computed
        dynamically inside a replicated control program."""
        import numpy as np
        from repro.runtime import Runtime
        _nodes, _wires, endpoints, _wt = graph

        def main(ctx):
            nfs = ctx.create_field_space([("v", "f8")])
            wfs = ctx.create_field_space([("i", "f8")])
            nodes = ctx.create_region(ctx.create_index_space(8), nfs, "n")
            wires = ctx.create_region(ctx.create_index_space(6), wfs, "w")
            wire_tiles = ctx.partition_equal(wires, 2)
            ghost = ctx.partition_by_image(
                nodes, wire_tiles, lambda w: endpoints[w[0]], name="ghost")
            owned = ctx.partition_equal(nodes, 2)
            ctx.fill(nodes, "v", 1.0)
            ctx.fill(wires, "i", 0.0)

            def flow(point, w_arg, g_arg):
                acc = w_arg["i"]
                for wp in sorted(w_arg.region.index_space.point_set()):
                    a, b = endpoints[wp[0]]
                    acc[wp] = g_arg["v"][(a,)] - g_arg["v"][(b,)] + wp[0]

            ctx.index_launch(flow, range(2),
                             [(wire_tiles, "i", "rw"), (ghost, "v", "ro")])
            return wires

        rt1 = Runtime(num_shards=1)
        w1 = rt1.execute(main)
        rt3 = Runtime(num_shards=3)
        w3 = rt3.execute(main)
        a = rt1.store.raw(w1, w1.field_space["i"])
        b = rt3.store.raw(w3, w3.field_space["i"])
        assert np.array_equal(a, b)
        assert list(a) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        rt3.pipeline.validate()


def _count_evaluations(ctx, counts):
    """The three dependent partitions of a 64-point line, each through a
    program function that counts its calls on this shard."""
    calls = counts.setdefault(ctx.shard, {"field": 0, "image": 0,
                                          "preimage": 0})

    def color_of(p):
        calls["field"] += 1
        return p[0] % 4

    def image_of(p):
        calls["image"] += 1
        return [(p[0] * 5 + 1) % 64]

    def preimage_of(p):
        calls["preimage"] += 1
        return [(p[0] * 3) % 64, (p[0] + 7) % 64]

    fs = ctx.create_field_space([("x", "f8")], "fs")
    r = ctx.create_region(ctx.create_index_space(64, "line"), fs, "r")
    equal = ctx.partition_equal(r, 4, name="equal")
    parts = [ctx.partition_by_field(r, range(4), color_of, name="by_field"),
             ctx.partition_by_image(r, equal, image_of, name="image"),
             ctx.partition_by_preimage(r, equal, preimage_of, name="pre")]
    return [{c: sorted(sub.index_space) for c, sub in p.subregions.items()}
            for p in parts]


@pytest.mark.parametrize("backend", ["inprocess", "loopback"])
def test_each_shard_evaluates_the_program_once_per_point(backend):
    """The hashed assignment and the partition come from one evaluation
    per point (they took two), and the stream hashes as it did."""
    from repro.runtime import Runtime

    counts = {}
    rt = Runtime(num_shards=2, backend=backend)
    by_field, image, pre = rt.execute(_count_evaluations, counts)
    assert counts == {s: {"field": 64, "image": 64, "preimage": 64}
                      for s in (0, 1)}
    assert rt.determinism_digests() == \
        [0x77dd37ada98d26fa913cabc39b06ba45] * 2
    assert by_field == {c: [(p,) for p in range(c, 64, 4)]
                        for c in range(4)}
    assert image[0] == sorted({((5 * p + 1) % 64,) for p in range(16)})
    assert pre[0] == sorted({(p,) for p in range(64)
                             if (3 * p) % 64 < 16 or (p + 7) % 64 < 16})
