"""What the gang wire carries: small control frames, never an ndarray.

Every frame goes through ``Transport.send``.  This test records them on
loopback for each sender the system has — a ``Runtime`` gang,
``DCRService`` (a cold run and a template hit) and a LOCALIZE
divergence — and checks that no payload holds an ndarray.
Window all-reduces and barriers are under 1 KiB.  LOCALIZE's all-gather
is the one frame that grows: it carries, per shard row, the failed
window's per-call digests and call names, so it is bounded by the window
length times the rows it carries, never by the program's data.  The shm
and tcp fabrics send each frame over one socket pair per rank pair,
which beats a shared-memory ring on every frame this size; shipping bulk
data over the gang wire is a design change that should revisit that
transport on purpose.
"""

import numpy as np
import pytest

from repro.core.determinism import ControlDeterminismViolation
from repro.dist import stencil_program
from repro.dist.frames import Frame, encode_frame
from repro.dist.transport import Transport
from repro.legate import reference_stencil, sliced_stencil
from repro.legate.stencil import make_wave
from repro.runtime import Runtime
from repro.service import DCRService

#: Bound on every window all-reduce and barrier frame, and on the fixed
#: part of a LOCALIZE all-gather frame (frame header plus per-row fields).
MAX_FRAME_BYTES = 1024

#: Bound on what one hashed call adds to one LOCALIZE row: its 128-bit
#: digest (22 B encoded) and its API-call name (5 B plus the name).
LOCALIZE_BYTES_PER_CALL = 64


def _holds_array(value):
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (list, tuple)):
        return any(map(_holds_array, value))
    if isinstance(value, dict):
        return any(map(_holds_array, value)) \
            or any(map(_holds_array, value.values()))
    return False


@pytest.fixture
def wire(monkeypatch):
    """Every frame sent, as ``(kind, encoded bytes, payload)``."""
    sent = []
    real_send = Transport.send

    def send(self, dst, kind, op, round_, payload):
        raw = encode_frame(Frame(kind, op, round_, self.rank, dst, 0,
                                 payload))
        sent.append((kind, len(raw), payload))
        return real_send(self, dst, kind, op, round_, payload)

    monkeypatch.setattr(Transport, "send", send)
    return sent


def _check(sent):
    """No ndarray anywhere; every frame but LOCALIZE's under 1 KiB."""
    assert sent, "the scenario sent nothing"
    assert not [kind for kind, _n, payload in sent if _holds_array(payload)]
    control = [n for kind, n, _payload in sent if kind != "allgather"]
    assert max(control) < MAX_FRAME_BYTES


def test_runtime_gang_sends_only_small_frames(wire):
    init = make_wave(64)
    got = Runtime(num_shards=2, backend="loopback").execute(
        sliced_stencil, init, 4, 4)
    np.testing.assert_array_equal(got, reference_stencil(init, 4))
    _check(wire)
    assert "allgather" not in {kind for kind, _n, _payload in wire}


def test_service_cold_run_and_template_hit_send_only_small_frames(wire):
    spec = stencil_program(8, steps=2)
    with DCRService(2, backend="loopback") as svc:
        session = svc.open_session("s")
        cold = session.run(spec)
        cold_frames = len(wire)
        hit = session.run(spec)
    assert cold.conformant and not cold.template_hit
    assert hit.conformant and hit.template_hit
    _check(wire)
    assert "allgather" not in {kind for kind, _n, _payload in wire}
    assert len(wire) == cold_frames      # a hit is served off the wire


@pytest.mark.parametrize("window", [32, 128])
def test_localize_frames_grow_only_with_the_window(wire, window):
    """A divergence at the last call of a full window: the largest
    LOCALIZE frame there is, for that window length."""
    shards = 3

    def divergent(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        # Three setup calls, then one call per fill.
        for _ in range(window - 4):
            ctx.fill(r, "x", 0.0)
        ctx.fill(r, "x", float(ctx.shard == shards - 1))

    with pytest.raises(ControlDeterminismViolation) as exc:
        Runtime(num_shards=shards, backend="loopback",
                check_batch=window).execute(divergent)
    assert exc.value.diagnosis.seq == window - 1
    _check(wire)
    gathers = [(n, rows) for kind, n, rows in wire if kind == "allgather"]
    assert gathers
    for n, rows in gathers:
        # Each row holds the whole failed window's calls.
        assert {len(row[3]) for row in rows.values()} == {window}
        assert n < MAX_FRAME_BYTES \
            + len(rows) * window * LOCALIZE_BYTES_PER_CALL
    # A row is a window of digests, so it outgrows a control frame.
    assert max(n for n, _rows in gathers) > MAX_FRAME_BYTES
