"""Legate deferred arrays against NumPy semantics."""

import numpy as np
import pytest

from repro.legate import LegateContext, ops
from repro.runtime import Runtime


def run(fn, shards=2):
    """Run a Legate snippet inside a replicated control program."""
    def main(ctx):
        lg = LegateContext(ctx, num_tiles=3)
        return fn(lg)
    return Runtime(num_shards=shards).execute(main)


class TestCreation:
    def test_zeros_full(self):
        def body(lg):
            z = lg.zeros(7)
            f = lg.full(7, 2.5)
            return z.to_numpy(), f.to_numpy()
        z, f = run(body)
        assert (z == 0).all() and (f == 2.5).all()

    def test_from_values_1d(self):
        data = np.arange(9.0)
        got = run(lambda lg: lg.from_values(data).to_numpy())
        assert (got == data).all()

    def test_from_values_2d(self):
        data = np.arange(12.0).reshape(4, 3)
        got = run(lambda lg: lg.from_values(data).to_numpy())
        assert (got == data).all()

    @pytest.mark.parametrize("values", [
        np.arange(12.0).reshape(4, 3), np.asfortranarray(np.ones((4, 3))),
        np.arange(12.0).reshape(4, 3)[:, ::2], [[1, 2], [3, 4]]],
        ids=["float64", "fortran", "strided", "int-lists"])
    def test_payload_is_a_private_frozen_float64_copy(self, values,
                                                      monkeypatch):
        """The bytes the determinism check hashed are the bytes every tile
        reads: tasks get a read-only C-contiguous copy, and the caller's
        own array is neither aliased nor frozen."""
        payloads = []
        real = ops.init_body

        def spy(point, out, payload, shape):
            payloads.append(payload)
            real(point, out, payload, shape)
        monkeypatch.setattr(ops, "init_body", spy)
        before = np.array(values)
        got = run(lambda lg: lg.from_values(values).to_numpy())
        assert (got == before).all() and (np.asarray(values) == before).all()
        if isinstance(values, np.ndarray):
            assert values.flags.writeable
        assert len(payloads) > 1                    # one per tile ...
        assert all(p is payloads[0] for p in payloads)   # ... never rebuilt
        payload = payloads[0]
        assert isinstance(payload, np.ndarray)
        assert payload.dtype == np.float64 and payload.flags.c_contiguous
        assert not payload.flags.writeable
        assert not np.shares_memory(payload, np.asarray(values))

    def test_task_cannot_write_into_its_payload(self, monkeypatch):
        def scribble(point, out, payload, shape):
            payload[0] = 1.0
        monkeypatch.setattr(ops, "init_body", scribble)
        with pytest.raises(ValueError, match="read-only"):
            run(lambda lg: lg.from_values(np.zeros(4)).to_numpy())

    def test_tiles_capped_at_rows(self):
        def body(lg):
            a = lg.zeros(2)
            return len(a.tiles)
        assert run(body) == 2


class TestElementwise:
    def test_add_sub_mul(self):
        x = np.arange(6.0)
        y = np.arange(6.0) * 2

        def body(lg):
            a, b = lg.from_values(x), lg.from_values(y)
            return ((a + b).to_numpy(), (a - b).to_numpy(),
                    (a * b).to_numpy())
        s, d, p = run(body)
        assert (s == x + y).all() and (d == x - y).all() and (p == x * y).all()

    def test_scalar_ops(self):
        x = np.arange(5.0)

        def body(lg):
            a = lg.from_values(x)
            return (a + 1).to_numpy(), (a - 2).to_numpy(), (3 * a).to_numpy()
        s, d, p = run(body)
        assert (s == x + 1).all() and (d == x - 2).all() and (p == 3 * x).all()

    def test_sigmoid(self):
        x = np.linspace(-3, 3, 7)
        got = run(lambda lg: lg.from_values(x).sigmoid().to_numpy())
        assert np.allclose(got, 1 / (1 + np.exp(-x)))

    def test_axpy_in_place(self):
        x = np.arange(4.0)
        y = np.ones(4)

        def body(lg):
            a, b = lg.from_values(x), lg.from_values(y)
            a.axpy(2.0, b)
            return a.to_numpy()
        assert (run(body) == x + 2.0).all()


class TestReductions:
    def test_dot(self):
        x, y = np.arange(8.0), np.arange(8.0)[::-1].copy()
        got = run(lambda lg: lg.from_values(x).dot(lg.from_values(y)))
        assert got == pytest.approx(float(x @ y))

    def test_sum(self):
        x = np.arange(10.0)
        assert run(lambda lg: lg.from_values(x).sum()) == pytest.approx(45.0)


class TestLinalg:
    def test_matvec(self):
        m = np.arange(12.0).reshape(4, 3)
        v = np.array([1.0, -1.0, 2.0])

        def body(lg):
            return lg.from_values(m).matvec(lg.from_values(v)).to_numpy()
        assert np.allclose(run(body), m @ v)

    def test_matvec_shape_mismatch(self):
        def body(lg):
            return lg.from_values(np.ones((3, 2))).matvec(
                lg.from_values(np.ones(3)))
        with pytest.raises(ValueError):
            run(body, shards=1)

    def test_rmatvec(self):
        m = np.arange(12.0).reshape(4, 3)
        v = np.array([1.0, 0.0, -1.0, 2.0])

        def body(lg):
            return lg.from_values(m).rmatvec(lg.from_values(v)).to_numpy()
        assert np.allclose(run(body), m.T @ v)


class TestDeterminism:
    def test_chained_expression_replicates(self):
        """A longer NumPy-ish expression runs identically on 3 shards."""
        x = np.arange(12.0)

        def body(lg):
            a = lg.from_values(x)
            b = (a * 2 + 1).sigmoid()
            c = b - a
            return c.dot(c)
        assert run(body, shards=3) == pytest.approx(run(body, shards=1))
