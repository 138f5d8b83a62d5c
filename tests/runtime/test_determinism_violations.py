"""The paper's three control-determinism violations (Figs. 4-6) as real
replicated control programs, plus their §3 remedies."""

import functools
import random

import numpy as np
import pytest

from repro.core import ControlDeterminismViolation
from repro.runtime import Runtime


def _scaffold(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(8), fs, "r")
    tiles = ctx.partition_equal(r, 4)
    ctx.fill(r, "x", 0.0)
    return r, tiles


def _algorithm0(ctx, tiles):
    ctx.index_launch(lambda p, a: a["x"].view.__iadd__(1.0), range(4),
                     [(tiles, "x", "rw")])


def _algorithm1(ctx, tiles):
    ctx.index_launch(lambda p, a: a["x"].view.__imul__(2.0), range(4),
                     [(tiles, "x", "rw")])


class TestFig4RandomBranch:
    def test_stdlib_random_violates(self):
        """Branching on `random.random()`: each shard draws from the shared
        global generator, so the branch diverges (Fig. 4)."""
        # Seed 0's first four draws straddle 0.5, so the four shards branch
        # differently.
        rng = random.Random(0)

        def main(ctx):
            _r, tiles = _scaffold(ctx)
            if rng.random() < 0.5:     # different value on every shard!
                _algorithm0(ctx, tiles)
            else:
                _algorithm1(ctx, tiles)

        with pytest.raises(ControlDeterminismViolation):
            Runtime(num_shards=4).execute(main)

    def test_counter_rng_repairs_it(self):
        """The §3 remedy: a counter-based generator gives every shard the
        same draw."""
        def main(ctx):
            _r, tiles = _scaffold(ctx)
            if ctx.rng(7).random() < 0.5:
                _algorithm0(ctx, tiles)
            else:
                _algorithm1(ctx, tiles)

        Runtime(num_shards=4).execute(main)    # must not raise


class TestFig5TimingBranch:
    def test_timing_dependent_is_ready_violates(self):
        """Branching on future.is_ready(): the future resolves at different
        speeds on different shards (Fig. 5), simulated by a per-shard
        timing oracle."""
        def timing(shard, _future):
            return shard % 2 == 0      # "fast" on even shards only

        def main(ctx):
            _r, tiles = _scaffold(ctx)
            fut = ctx.launch(lambda a: 1.0, [(_r, "x", "ro")])
            if fut.is_ready():
                _algorithm0(ctx, tiles)        # inline path
            else:
                _algorithm1(ctx, tiles)        # deferred path

        with pytest.raises(ControlDeterminismViolation):
            Runtime(num_shards=2, timing_oracle=timing).execute(main)

    def test_blocking_get_is_deterministic(self):
        """The remedy: block on the value instead of probing readiness."""
        def timing(shard, _future):
            return shard % 2 == 0

        def main(ctx):
            _r, tiles = _scaffold(ctx)
            fut = ctx.launch(lambda a: 1.0, [(_r, "x", "ro")])
            if ctx.get_value(fut) > 0:
                _algorithm0(ctx, tiles)
            else:
                _algorithm1(ctx, tiles)

        Runtime(num_shards=2, timing_oracle=timing).execute(main)


class TestFig6UnorderedIteration:
    def test_hash_randomized_set_order_violates(self):
        """Iterating a set whose order differs per shard (Python randomizes
        string hashing per process; here we model the per-shard order
        directly) launches the same tasks in different orders (Fig. 6)."""
        def main(ctx):
            _r, tiles = _scaffold(ctx)
            order = list(range(4))
            # Model hash randomization: each shard sees its own ordering.
            random.Random(ctx.shard).shuffle(order)
            for i in order:
                ctx.index_launch(
                    lambda p, a: a["x"].view.__iadd__(1.0), [i],
                    [(tiles, "x", "rw")])

        with pytest.raises(ControlDeterminismViolation):
            Runtime(num_shards=3).execute(main)

    def test_sorted_iteration_is_fine(self):
        def main(ctx):
            _r, tiles = _scaffold(ctx)
            for i in sorted({3, 1, 2, 0}):    # defined order
                ctx.index_launch(
                    lambda p, a: a["x"].view.__iadd__(1.0), [i],
                    [(tiles, "x", "rw")])

        Runtime(num_shards=3).execute(main)


class TestStructuralDivergence:
    def test_extra_launch_detected(self):
        def main(ctx):
            _r, tiles = _scaffold(ctx)
            _algorithm0(ctx, tiles)
            if ctx.shard == 1:                 # pathological: shard probe
                _algorithm1(ctx, tiles)

        with pytest.raises(ControlDeterminismViolation):
            Runtime(num_shards=2).execute(main)

    def test_extra_resource_creation_detected(self):
        def main(ctx):
            _r, _tiles = _scaffold(ctx)
            if ctx.shard == 1:
                ctx.create_index_space(4)

        with pytest.raises(ControlDeterminismViolation):
            Runtime(num_shards=2).execute(main)

    def test_divergent_fill_value_detected(self):
        def main(ctx):
            fs = ctx.create_field_space([("x", "f8")])
            r = ctx.create_region(ctx.create_index_space(4), fs, "r")
            ctx.fill(r, "x", float(ctx.shard))   # argument divergence

        with pytest.raises(ControlDeterminismViolation):
            Runtime(num_shards=2, check_batch=1).execute(main)

    def test_checks_disabled_skips_detection(self):
        """'No Safe' mode (Fig. 21): the same divergence goes unnoticed by
        the monitor (and is only caught later, if at all)."""
        def main(ctx):
            fs = ctx.create_field_space([("x", "f8")])
            r = ctx.create_region(ctx.create_index_space(4), fs, "r")
            ctx.fill(r, "x", float(ctx.shard))

        Runtime(num_shards=2, safe_checks=False).execute(main)


@pytest.mark.parametrize("backend", ["inprocess", "loopback"])
class TestArrayArguments:
    """Array task arguments are part of the call: hashed by dtype, shape
    and content wherever they sit in ``args``."""

    @staticmethod
    def _launch(ctx, args):
        _r, tiles = _scaffold(ctx)
        ctx.index_launch(lambda p, a, *rest: None, range(4),
                         [(tiles, "x", "ro")], args=args)

    def _violates(self, backend, args_of_shard):
        with pytest.raises(ControlDeterminismViolation) as exc:
            Runtime(num_shards=2, backend=backend).execute(
                lambda ctx: self._launch(ctx, args_of_shard(ctx.shard)))
        assert "index_launch" in str(exc.value)

    def test_nested_array_content_divergence_detected(self, backend):
        base = np.arange(4.0)
        self._violates(backend,
                       lambda shard: ((base + (7 if shard == 1 else 0),),))

    def test_nested_numpy_scalar_divergence_detected(self, backend):
        self._violates(backend, lambda shard: ((np.int64(3 + shard), "k"),))

    def test_same_bytes_different_shape_detected(self, backend):
        self._violates(backend, lambda shard: (
            np.zeros((2, 2)) if shard == 1 else np.zeros(4),))

    def test_same_bytes_different_dtype_detected(self, backend):
        self._violates(backend, lambda shard: (
            np.zeros(8, "f4") if shard == 1 else np.zeros(4),))

    def test_equal_arrays_in_distinct_objects_agree(self, backend):
        rt = Runtime(num_shards=2, backend=backend)
        rt.execute(lambda ctx: self._launch(
            ctx, ((np.arange(4.0), np.int64(3)), np.ones((2, 2)))))

    def test_fresh_argument_objects_do_not_diverge(self, backend):
        """Objects of a plain class are hashed by identity: the driver's
        stay alive in its operations, a replica's die after each call, and
        CPython hands the freed address to the next one.  Every shard must
        still see one new object per launch."""
        class Opts:
            def __init__(self, alpha):
                self.alpha = alpha

        def body(point, tile, opts):
            tile["x"].view[...] += opts.alpha

        def main(ctx):
            r, tiles = _scaffold(ctx)
            for _ in range(6):
                ctx.index_launch(body, range(4), [(tiles, "x", "rw")],
                                 args=(Opts(1.0),))
            return r

        rt = Runtime(num_shards=2, backend=backend)
        r = rt.execute(main)
        assert (rt.store.raw(r, r.field_space["x"]) == 6.0).all()


class TestUnnamedTaskFunctions:
    """A task is identified across shards by its function's module and
    qualified name (and, for bodies that share both, the order the driver
    first launched them in); a callable without a name is refused up
    front."""

    @staticmethod
    def _body(point, tile, alpha):
        tile["x"].view[...] += alpha

    class _Callable:
        def __call__(self, point, tile):
            pass

    @pytest.mark.parametrize("fn", [
        functools.partial(_body.__func__, alpha=1.0), _Callable()],
        ids=["partial", "callable-object"])
    @pytest.mark.parametrize("launch", ["launch", "index_launch"])
    def test_rejected_with_a_type_error_naming_args(self, fn, launch):
        def main(ctx):
            r, tiles = _scaffold(ctx)
            if launch == "launch":
                ctx.launch(fn, [(r, "x", "rw")])
            else:
                ctx.index_launch(fn, range(4), [(tiles, "x", "rw")])

        with pytest.raises(TypeError, match="args="):
            Runtime(num_shards=2).execute(main)


_TASK_SOURCE = """
def body(point, tile):
    tile["x"].view[...] += point
"""


def _compiled_body(blank_lines):
    """``body`` of one module, compiled ``blank_lines`` lines further
    down its file."""
    namespace = {"__name__": "tasks_under_test"}
    exec(compile("\n" * blank_lines + _TASK_SOURCE, "tasks_under_test.py",
                 "exec"), namespace)
    return namespace["body"]


class TestTaskKeys:
    """A task key is a function of the program, not of its source layout."""

    def test_moving_a_task_body_down_its_file_changes_no_digest(self):
        def digests(body):
            def main(ctx):
                _r, tiles = _scaffold(ctx)
                ctx.index_launch(body, range(4), [(tiles, "x", "rw")])

            rt = Runtime(num_shards=2)
            rt.execute(main)
            return rt.determinism_digests()

        a, b = _compiled_body(0), _compiled_body(1)
        assert a.__code__.co_firstlineno != b.__code__.co_firstlineno
        assert (a.__module__, a.__qualname__) == \
            (b.__module__, b.__qualname__)
        assert digests(a) == digests(b)

    @pytest.mark.parametrize("backend", ["inprocess", "tcp"])
    def test_two_lambdas_are_two_tasks_and_a_swap_is_localized(self,
                                                                backend):
        # One line: one qualified name and one first line for both.
        bodies = (lambda p, t: None, lambda p, t: None)

        def program(swapping_shard):
            def main(ctx):
                _r, tiles = _scaffold(ctx)
                order = bodies[::-1] if ctx.shard == swapping_shard \
                    else bodies
                for body in order:
                    ctx.index_launch(body, range(4), [(tiles, "x", "ro")])
            return main

        rt = Runtime(num_shards=1)
        rt.execute(program(None))
        hasher = rt.monitor.hasher(0)
        first = hasher.descriptions.index("index_launch")
        assert hasher.calls[first] != hasher.calls[first + 1]
        with pytest.raises(ControlDeterminismViolation) as exc:
            Runtime(num_shards=3, backend=backend).execute(program(2))
        diagnosis = exc.value.diagnosis
        assert diagnosis.seq == first
        assert diagnosis.divergent_shards == (2,)


def _read_tile(point, tile):
    return None


def test_a_domain_hashes_as_its_points_whatever_its_type():
    """A frontend's memoised tuple domain, a list and a ``range`` are the
    same launch on the wire: a range is never interned as an object."""
    def digests(domain):
        def main(ctx):
            _r, tiles = _scaffold(ctx)
            ctx.index_launch(_read_tile, domain, [(tiles, "x", "ro")])

        rt = Runtime(num_shards=2)
        rt.execute(main)
        return rt.determinism_digests()

    assert digests(range(4)) == digests([0, 1, 2, 3]) \
        == digests((0, 1, 2, 3))
