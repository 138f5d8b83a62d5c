"""Shard-to-shard transports for the gang backends.

A :class:`Transport` gives one shard (its *rank*) tagged, reliable,
deadline-bounded message exchange with every peer shard.  Three
implementations, each behind a :class:`Fabric` — the mesh as a whole,
with one lifecycle protocol the gang launcher drives without knowing
which it holds:

* :class:`LoopbackFabric` — in-process queues, one transport per rank; the
  unit-test fabric.  Threads stand in for processes, and an optional
  ``scramble`` hook reorders deliveries to exercise the tag/sequence
  matching logic.
* :class:`SharedMemFabric` — one single-producer/single-consumer ring
  buffer in ``multiprocessing.shared_memory`` per directed (src, dst)
  channel, plus one socket pair per rank pair as the doorbell.  Frames
  are written once into the ring, decoded in place on the receive side
  (decoded values are copied out, ndarrays included) and their slot is
  freed as soon as the decode returns; the sender rings the doorbell
  (one byte) after publishing a frame.
* :class:`TCPFabric` — one TCP socket per channel carrying length-prefixed
  frames (:mod:`repro.dist.frames`), pre-connected in the parent; a gang
  runs on one host.

Every fabric encodes through :func:`~repro.dist.frames.encode_frame_parts`
and decodes through the one in-place parse of :mod:`repro.dist.frames`.
The control plane sends small frames — window digests, fence barriers,
LOCALIZE's per-call digests — and no ndarrays (``docs/dist.md``, "What
the wire carries").

Delivery semantics shared by all (implemented in the base class):

* every frame carries a per-``(src, dst)`` channel **sequence number**;
  duplicates (same ``seq`` seen twice) are dropped, and out-of-order
  arrivals are resolved by the receiver's tag matching — :meth:`recv`
  returns the payload for one exact ``(kind, op, round)`` tag, buffering
  any frames that arrive for later tags.  The out-of-order window is
  bounded: a peer that skips ahead more than ``max_reorder`` sequence
  numbers surfaces as a structured :class:`ReorderWindowExceeded`
  instead of unbounded state growth;
* a receive **waits, it does not poll** — in ``select`` (tcp, the shm
  doorbell) or ``Queue.get`` (loopback) — for a frame, the peer's
  end-of-stream or its **hard deadline**, past which it raises
  :class:`~repro.faults.injector.CollectiveTimeout` with the caller's
  ``(kind, op)`` tag and the number of waits made;
* a dead peer is end-of-stream on every fabric — socket EOF on tcp and
  on the shm doorbell, a sentinel in the loopback queues — so it
  surfaces as :class:`PeerGone` (a ``CollectiveTimeout`` subclass) at
  once, after the frames it committed;
* a transport that has been :meth:`~Transport.close`\\ d rejects further
  ``send``/``recv`` with :class:`TransportError` — a secondary observer
  that cascade-closed its endpoints cannot silently push frames into a
  torn-down fabric.
"""

from __future__ import annotations

import os
import queue
import select
import socket
import struct
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..faults.injector import CollectiveTimeout
from .frames import (MAGIC, Frame, FrameDecoder, FrameError, decode_frame,
                     encode_frame, encode_frame_parts)

__all__ = ["TransportError", "PeerGone", "ReorderWindowExceeded",
           "Transport", "Fabric", "LoopbackFabric",
           "SharedMemFabric", "TCPFabric",
           "fabric_for_backend", "PROCESS_BACKENDS",
           "DEFAULT_DEADLINE_S", "DEFAULT_RING_BYTES", "DEFAULT_MAX_REORDER"]

#: Default hard deadline on every receive.  Generous for CI machines, but
#: finite: a dead peer turns into an exception, never a hang.
DEFAULT_DEADLINE_S = 30.0

#: Bound on the per-peer out-of-order window: a frame whose seq is this far
#: above the contiguous watermark is a protocol violation, not reordering.
DEFAULT_MAX_REORDER = 4096

#: Per-channel shared-memory ring capacity.  One frame must fit
#: contiguously, so fabrics carrying large ndarray payloads should size
#: this to a few multiples of the largest expected frame.
DEFAULT_RING_BYTES = 4 * 1024 * 1024

#: Backends that run real worker processes over a fabric from this module
#: (as opposed to "loopback", which threads transports in-process).
PROCESS_BACKENDS = ("shm", "tcp")


class TransportError(RuntimeError):
    """Transport-level failure that is not a timeout."""


class ReorderWindowExceeded(TransportError):
    """A peer skipped ahead of the bounded out-of-order window.

    Carries the offending channel state so supervisors can attribute the
    violation: ``src`` (the peer), ``seq`` (the frame that overflowed the
    window), ``floor`` (the contiguous watermark), and ``window`` (the
    configured bound).
    """

    def __init__(self, rank: int, src: int, seq: int, floor: int,
                 window: int):
        super().__init__(
            f"shard {rank}: frame seq {seq} from shard {src} is "
            f"{seq - floor} ahead of the contiguous watermark {floor}, "
            f"beyond the {window}-frame reorder window (corrupted peer)")
        self.rank = rank
        self.src = src
        self.seq = seq
        self.floor = floor
        self.window = window


class PeerGone(CollectiveTimeout):
    """The peer's endpoint is closed — its worker crashed or exited early.

    Subclasses :class:`CollectiveTimeout` so callers that guard collectives
    against a silent peer handle a dead one the same way: a crash surfaces
    as an exception, not a hang.
    """

    def __init__(self, kind: str, op: int, peer: int, attempts: int = 1):
        super().__init__(kind, op, peer, attempts)
        # Rewrite the generic message with the crash-specific one.
        self.args = (f"collective {kind} #{op}: shard {peer}'s endpoint is "
                     f"closed (worker crashed or exited early)",)


class Transport:
    """Tagged, sequenced, deadline-bounded exchange with peer shards.

    Subclasses implement the raw byte movement (:meth:`_send_bytes` and
    :meth:`_poll_frame`); this base class
    implements framing, per-peer sequence numbering, duplicate
    suppression, tag matching, and deadlines.  ``clock`` is injectable so
    deadline behavior is testable without real sleeps.
    """

    def __init__(self, rank: int, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 clock: Callable[[], float] = time.monotonic,
                 max_reorder: int = DEFAULT_MAX_REORDER):
        if not 0 <= rank < num_shards:
            raise ValueError(f"rank {rank} outside [0, {num_shards})")
        self.rank = rank
        self.num_shards = num_shards
        self.deadline_s = deadline_s
        self.max_reorder = max_reorder
        self._clock = clock
        self._send_seq: Dict[int, int] = {}
        # Duplicate suppression with bounded state: per peer, every seq
        # below ``_recv_floor`` has been accepted (contiguous watermark);
        # ``_recv_ahead`` holds only the out-of-order seqs above it.  A
        # persistent gang exchanges millions of frames per channel, so
        # remembering every seq ever seen (the old Set) is a leak — the
        # watermark keeps per-peer state proportional to the reorder
        # window, which is O(1) for FIFO fabrics and hard-capped at
        # ``max_reorder`` for misbehaving peers.
        self._recv_floor: Dict[int, int] = {}
        self._recv_ahead: Dict[int, Set[int]] = {}
        self._pending: Dict[Tuple[int, Tuple[str, int, int]], List[Any]] = {}
        self.frames_sent = 0
        self.frames_received = 0
        self.duplicates_dropped = 0
        self.out_of_order = 0
        self._closed = False

    # -- subclass interface --------------------------------------------------

    def _send_frame(self, dst: int, frame: Frame) -> None:
        """Encode and transmit one frame.

        The default joins the encoded parts into one bytes object for
        :meth:`_send_bytes`; the shm rings override this to copy the
        parts straight into the ring.
        """
        self._send_bytes(dst, encode_frame(frame))

    def _send_bytes(self, dst: int, data: bytes) -> None:
        raise NotImplementedError

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        """One decoded frame from ``src``, or None if none within timeout.

        Waits in the kernel or the queue, not in a sleep; None may also
        come early, from a wakeup without a whole frame.  Raises
        :class:`PeerGone` (with a generic tag) once the peer's endpoint
        is closed and its committed frames are read,
        :class:`TransportError` on a corrupt frame.
        """
        raise NotImplementedError

    def close(self) -> None:
        self._closed = True

    # -- public API ----------------------------------------------------------

    def _require_open(self, what: str) -> None:
        if self._closed:
            raise TransportError(
                f"shard {self.rank}: {what} on a closed transport — this "
                f"endpoint was shut down (secondary observer or torn-down "
                f"gang)")

    def send(self, dst: int, kind: str, op: int, round_: int,
             payload: Any) -> None:
        """Send one tagged payload to shard ``dst``."""
        self._require_open(f"send({kind} #{op})")
        if dst == self.rank:
            raise TransportError("self-sends are not routed; loop locally")
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        frame = Frame(kind=kind, op=op, round=round_, src=self.rank,
                      dst=dst, seq=seq, payload=payload)
        try:
            self._send_frame(dst, frame)
        except PeerGone:
            # Re-tag with the caller's collective so failure attribution
            # sees the real (kind, op) instead of a generic ("send", 0).
            raise PeerGone(kind, op, dst) from None
        self.frames_sent += 1

    def recv(self, src: int, kind: str, op: int, round_: int,
             timeout_s: Optional[float] = None) -> Any:
        """Payload of the frame tagged ``(kind, op, round_)`` from ``src``.

        Frames from ``src`` bearing other tags are buffered for later
        ``recv`` calls (out-of-order delivery is resolved here).  Raises
        :class:`CollectiveTimeout` when the deadline expires and
        :class:`PeerGone` when the peer's endpoint is closed — both carry
        the caller's tag and the number of waits made.
        """
        self._require_open(f"recv({kind} #{op})")
        tag = (kind, op, round_)
        deadline = self._clock() + (timeout_s if timeout_s is not None
                                    else self.deadline_s)
        attempts = 0
        while True:
            bucket = self._pending.get((src, tag))
            if bucket:
                payload = bucket.pop(0)
                if not bucket:
                    # Drained buckets are deleted, not kept as empty lists:
                    # a long-lived transport sees an unbounded stream of
                    # distinct tags, one short-lived bucket each.
                    del self._pending[(src, tag)]
                return payload
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise CollectiveTimeout(kind, op, src, max(1, attempts))
            attempts += 1
            try:
                frame = self._poll_frame(src, remaining)
            except PeerGone:
                raise PeerGone(kind, op, src, attempts=attempts) from None
            if frame is not None:
                self._accept(src, frame, expected_tag=tag)

    def _accept(self, src: int, frame: Frame,
                expected_tag: Tuple[str, int, int]) -> None:
        if frame.dst != self.rank:
            raise TransportError(
                f"misrouted frame: dst={frame.dst} arrived at {self.rank}")
        if not self._note_seq(frame.src, frame.seq):
            self.duplicates_dropped += 1
            return
        self.frames_received += 1
        if frame.tag() != expected_tag:
            self.out_of_order += 1
        self._pending.setdefault((frame.src, frame.tag()), []) \
            .append(frame.payload)

    def _note_seq(self, src: int, seq: int) -> bool:
        """Record one arrival; False if ``seq`` was already accepted.

        Contiguous watermark plus out-of-order window: seqs below the
        per-peer floor are duplicates by definition, seqs above it live in
        a small set until the floor catches up and absorbs them.  The set
        is hard-capped: a seq more than ``max_reorder`` above the floor
        raises :class:`ReorderWindowExceeded` instead of growing state
        without bound.
        """
        floor = self._recv_floor.get(src, 0)
        if seq < floor:
            return False
        if seq - floor >= self.max_reorder:
            raise ReorderWindowExceeded(self.rank, src, seq, floor,
                                        self.max_reorder)
        ahead = self._recv_ahead.setdefault(src, set())
        if seq in ahead:
            return False
        if seq == floor:
            floor += 1
            while floor in ahead:
                ahead.discard(floor)
                floor += 1
            self._recv_floor[src] = floor
        else:
            ahead.add(seq)
        return True


class Fabric:
    """The mesh a gang runs over: one protocol, three implementations.

    :mod:`repro.dist.gang` drives every fabric through these five names
    and never asks which one it holds; a fabric with nothing to do for a
    step inherits the no-op.  ``transport(rank)`` claims ``rank``'s
    endpoints (call it once, in the thread or process that is that rank).
    """

    #: The launching process must close its own copies of the endpoints
    #: once every rank is started, else a dead rank's peers never see EOF.
    parent_must_release = False

    num_shards: int

    def transport(self, rank: int) -> Transport:
        raise NotImplementedError

    def transports(self) -> List[Transport]:
        return [self.transport(r) for r in range(self.num_shards)]

    def mark_closed(self, rank: int) -> None:
        """Declare ``rank`` dead so peers waiting on it get
        :class:`PeerGone` (socket fabrics see EOF on their own once the
        rank's process exits or its transport closes)."""

    def close_other_ends(self, rank: int) -> None:
        """In the process that is ``rank``: drop every foreign endpoint."""

    def close_all(self) -> None:
        """Release everything this process still holds of the mesh."""


def _close_sockets(socks) -> None:
    """Shut down and close sockets: peers see EOF though a copy survives."""
    for sock in socks:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass


class _SocketPairFabric(Fabric):
    """A mesh with one connected socket pair per unordered rank pair.

    ``_ends[(a, b)]`` (``a < b``) is ``(end_a, end_b)``, made by
    ``connect()`` in rank-pair order and non-blocking: rank ``a`` uses
    ``end_a`` and rank ``b`` uses ``end_b``.  Each rank keeps only its
    own ends and the launcher drops all of them, so a rank's end reads
    EOF as soon as its peer's process exits or its transport closes.
    """

    parent_must_release = True

    def __init__(self, num_shards: int, deadline_s: float,
                 connect: Callable[[], Tuple[socket.socket, socket.socket]]):
        self.num_shards = num_shards
        self.deadline_s = deadline_s
        self._ends = {(a, b): connect() for a in range(num_shards)
                      for b in range(a + 1, num_shards)}
        for ends in self._ends.values():
            for sock in ends:
                sock.setblocking(False)

    def _own_ends(self, rank: int) -> Dict[int, socket.socket]:
        """``rank``'s end of each pair, by peer."""
        return {(b if rank == a else a): ends[(a, b).index(rank)]
                for (a, b), ends in self._ends.items() if rank in (a, b)}

    def close_other_ends(self, rank: int) -> None:
        """In a worker: drop every socket not belonging to ``rank``."""
        for pair, ends in self._ends.items():
            for owner, sock in zip(pair, ends):
                if owner != rank:
                    sock.close()

    def close_all(self) -> None:
        for ends in self._ends.values():
            for sock in ends:
                sock.close()


# ---------------------------------------------------------------------------
# Loopback (in-process) fabric
# ---------------------------------------------------------------------------

class _LoopbackTransport(Transport):
    def __init__(self, fabric: "LoopbackFabric", rank: int):
        super().__init__(rank, fabric.num_shards,
                         deadline_s=fabric.deadline_s,
                         clock=fabric.clock or time.monotonic)
        self._fabric = fabric

    def _send_bytes(self, dst: int, data: bytes) -> None:
        if self._fabric.is_closed(dst):
            # Match the process fabrics: writing to a dead peer surfaces
            # immediately (send() re-tags with the caller's collective).
            raise PeerGone("send", 0, dst)
        self._fabric.deliver(self.rank, dst, data)

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        q = self._fabric.channel(src, self.rank)
        try:
            raw = q.get(timeout=timeout_s)
        except queue.Empty:
            return None
        if raw is None:                 # the peer's end-of-stream
            q.put(None)                 # every later read sees it too
            raise PeerGone("recv", 0, src)
        try:
            return decode_frame(raw)
        except FrameError as exc:
            raise TransportError(
                f"shard {self.rank}: corrupt frame from shard {src}: {exc}"
            ) from exc

    def close(self) -> None:
        # The queue mesh has no descriptor whose closing peers could
        # observe; end this rank's queues out loud instead.
        super().close()
        self._fabric.mark_closed(self.rank)


class LoopbackFabric(Fabric):
    """In-process mesh of queues — the test stand-in for real IPC.

    The fabric still runs every payload through the full frame
    encode/decode path, so serialization bugs show up here too.  An
    optional ``scramble(src, dst, pending) -> list`` hook reorders (or
    duplicates) queued deliveries, modelling an adversarial network, and
    an optional ``clock`` is threaded into every transport so deadline
    behavior can be driven by a fake clock in tests.  A closed rank's
    outbound queues end with ``None``, the end-of-stream a blocked
    ``Queue.get`` wakes on.
    """

    def __init__(self, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 scramble=None,
                 clock: Optional[Callable[[], float]] = None):
        self.num_shards = num_shards
        self.deadline_s = deadline_s
        self.scramble = scramble
        self.clock = clock
        self._channels: Dict[Tuple[int, int], "queue.Queue[bytes]"] = {
            (s, d): queue.Queue()
            for s in range(num_shards) for d in range(num_shards) if s != d
        }
        self._closed: Set[int] = set()

    def transport(self, rank: int) -> Transport:
        return _LoopbackTransport(self, rank)

    def channel(self, src: int, dst: int) -> "queue.Queue[bytes]":
        return self._channels[(src, dst)]

    def deliver(self, src: int, dst: int, data: bytes) -> None:
        if src in self._closed:
            return                      # nothing is read past its end
        q = self._channels[(src, dst)]
        if self.scramble is None:
            q.put(data)
            return
        # Drain, let the hook reorder/duplicate, refill.  Only used by
        # single-threaded tests, so the drain/refill window is benign.
        # The hook must see the backlog in FIFO arrival order (queue drains
        # oldest-first) with the new frame last, so an identity scramble is
        # a true no-op on delivery order.
        pending: List[bytes] = []
        while True:
            try:
                pending.append(q.get_nowait())
            except queue.Empty:
                break
        pending.append(data)
        for item in self.scramble(src, dst, pending):
            q.put(item)

    def mark_closed(self, rank: int) -> None:
        """Declare ``rank`` dead: end each of its outbound queues, so a
        peer reads what ``rank`` queued before, then :class:`PeerGone`."""
        if rank in self._closed:
            return
        self._closed.add(rank)
        for dst in range(self.num_shards):
            if dst != rank:
                self._channels[(rank, dst)].put(None)

    def is_closed(self, rank: int) -> bool:
        return rank in self._closed


# ---------------------------------------------------------------------------
# Shared-memory ring fabric
# ---------------------------------------------------------------------------

class _ShmRing:
    """One direction of one channel: an SPSC byte ring in shared memory.

    Layout: 16-byte header (``head`` — total bytes published, written only
    by the producer; ``tail`` — total bytes released, written only by the
    consumer; both monotonic u64 counters) followed by ``capacity`` data
    bytes.  Frames are always stored contiguously: when one would straddle
    the end of the buffer the producer stamps a one-byte PAD marker
    (0xFF — unambiguous, the frame magic starts 0xD5) and skips to offset
    zero.  The consumer parses at its private ``_read`` cursor and
    publishes ``tail`` once the frame is decoded.

    Single-producer/single-consumer with the producer publishing ``head``
    strictly after the frame body is in place; no locks needed.
    """

    HDR = 16
    PAD = 0xFF

    def __init__(self, shm):
        self._shm = shm
        self.capacity = shm.size - self.HDR
        self._buf = shm.buf
        struct.pack_into("<QQ", self._buf, 0, 0, 0)
        self._head = 0
        self._read = 0
        self._released = False

    @classmethod
    def create(cls, ring_bytes: int) -> "_ShmRing":
        from multiprocessing import shared_memory
        return cls(shared_memory.SharedMemory(create=True,
                                              size=ring_bytes + cls.HDR))

    # -- producer side -------------------------------------------------------

    def _load_tail(self) -> int:
        return struct.unpack_from("<Q", self._buf, 8)[0]

    def try_write_parts(self, parts, n: int) -> bool:
        """Append one frame given as bytes-like pieces totalling ``n``.

        Pieces are copied into the ring back to back, so an ndarray
        payload handed over as its own buffer
        (:func:`~repro.dist.frames.encode_frame_parts`) is copied once
        end to end.
        """
        cap = self.capacity
        if n > cap:
            raise TransportError(
                f"frame of {n} bytes exceeds the shm ring capacity "
                f"({cap} bytes); construct the fabric with a larger "
                f"ring_bytes")
        head = self._head
        pos = head % cap
        if pos + n > cap:
            # The frame must be contiguous: stamp a PAD marker and skip to
            # offset zero.  The skipped remainder counts as live span, so
            # it must itself fit before we commit it.
            pad = cap - pos
            if (head - self._load_tail()) + pad > cap:
                return False
            self._buf[self.HDR + pos] = self.PAD
            head += pad
            self._head = head
            struct.pack_into("<Q", self._buf, 0, head)
            pos = 0
        if (head - self._load_tail()) + n > cap:
            return False
        off = self.HDR + pos
        for part in parts:
            ln = len(part)
            self._buf[off:off + ln] = part
            off += ln
        self._head = head + n
        # Publish strictly after the body so the consumer never parses a
        # half-written frame.
        struct.pack_into("<Q", self._buf, 0, self._head)
        return True

    # -- consumer side -------------------------------------------------------

    def _load_head(self) -> int:
        return struct.unpack_from("<Q", self._buf, 0)[0]

    def try_read(self) -> Optional[Tuple[memoryview, int]]:
        """``(frame_view, cursor_after)`` for the next frame, or None.

        The view aliases ring storage: the caller decodes it, releases
        it, then calls :meth:`release` with ``cursor_after``.
        """
        cap = self.capacity
        while True:
            head = self._load_head()
            if self._read >= head:
                return None
            rpos = self._read % cap
            first = self._buf[self.HDR + rpos]
            if first == self.PAD:
                self._read += cap - rpos
                continue
            hdr = bytes(self._buf[self.HDR + rpos:self.HDR + rpos + 6])
            if hdr[:2] != MAGIC:
                raise FrameError(f"bad frame magic {hdr[:2]!r} in shm ring")
            total = 6 + struct.unpack(">I", hdr[2:])[0]
            view = memoryview(self._buf)[self.HDR + rpos:
                                         self.HDR + rpos + total]
            self._read += total
            return view, self._read

    def release(self, upto: int) -> None:
        """Publish ``tail``: the producer may now reuse bytes below it."""
        struct.pack_into("<Q", self._buf, 8, upto)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view of the segment (idempotent)."""
        if self._released:
            return
        self._released = True
        try:
            self._buf = None
            self._shm.close()
        except (BufferError, OSError):
            pass    # the mapping dies with the process instead

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass


class _SharedMemTransport(Transport):
    """One rank's view of the shm ring mesh; decodes frames in place.

    ``bells[p]`` is this rank's end of the socket pair it shares with
    peer ``p``.  A sender rings it (one byte) after publishing a frame to
    ``p``'s ring; a receiver whose ring is empty waits in ``select`` on
    it.  It reads EOF once ``p``'s process exits or its transport
    closes, which is how a dead peer is seen.
    """

    def __init__(self, rank: int, num_shards: int,
                 rings_out: Dict[int, _ShmRing],
                 rings_in: Dict[int, _ShmRing],
                 bells: Dict[int, socket.socket],
                 deadline_s: float = DEFAULT_DEADLINE_S):
        super().__init__(rank, num_shards, deadline_s=deadline_s)
        self._rings_out = rings_out
        self._rings_in = rings_in
        self._bells = bells
        # Frames drained opportunistically while a send was stalled on a
        # full outbound ring, waiting for their recv.
        self._stash: Dict[int, deque] = {s: deque() for s in rings_in}

    def _ring(self, dst: int) -> None:
        """Wake ``dst``; :class:`PeerGone` if its end of the bell is closed."""
        try:
            self._bells[dst].send(b"\x01")
        except (BlockingIOError, InterruptedError):
            pass    # bytes already wait unread: dst wakes anyway
        except (BrokenPipeError, ConnectionResetError):
            raise PeerGone("send", 0, dst) from None

    def _send_frame(self, dst: int, frame: Frame) -> None:
        # The encoded parts go straight into the ring: an array payload
        # is copied once (array -> ring), not joined first.
        parts, total = encode_frame_parts(frame)
        ring = self._rings_out[dst]
        deadline = time.monotonic() + self.deadline_s
        while not ring.try_write_parts(parts, total):
            # Drain our inbound rings while stalled: with symmetric large
            # exchanges every peer may be mid-send, and nobody's outbound
            # ring empties until somebody consumes.
            drained = False
            for src in self._rings_in:
                while True:
                    frame = self._take_one(src)
                    if frame is None:
                        break
                    self._stash[src].append(frame)
                    drained = True
            if drained:
                continue
            self._ring(dst)     # a dead receiver is a broken pipe
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"shard {self.rank}: shm ring to shard {dst} stayed "
                    f"full for {self.deadline_s}s (receiver not draining)")
            time.sleep(0.0002)
        self._ring(dst)

    def _take_one(self, src: int) -> Optional[Frame]:
        """Decode the next frame from ``src``'s ring, if one is ready, and
        free its slot."""
        ring = self._rings_in[src]
        try:
            out = ring.try_read()
            if out is None:
                return None
            view, cursor = out
            with view:
                frame = decode_frame(view)
        except FrameError as exc:
            raise TransportError(
                f"shard {self.rank}: corrupt frame from shard {src}: "
                f"{exc}") from exc
        ring.release(cursor)
        return frame

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        stash = self._stash[src]
        if stash:
            return stash.popleft()
        frame = self._take_one(src)
        if frame is not None:
            return frame
        bell = self._bells[src]
        try:
            readable, _, _ = select.select([bell], [], [], timeout_s)
        except (ValueError, OSError):
            raise PeerGone("recv", 0, src) from None
        if not readable:
            return None
        try:
            ended = not bell.recv(4096)     # drain the rung bytes
        except (BlockingIOError, InterruptedError):
            ended = False
        except ConnectionResetError:
            ended = True
        # A peer publishes a frame before it rings, and commits its final
        # frames before it closes or exits: read the ring once more, so
        # what it sent is delivered before its end-of-stream.
        frame = self._take_one(src)
        if frame is None and ended:
            raise PeerGone("recv", 0, src)
        return frame

    def close(self) -> None:
        super().close()
        _close_sockets(self._bells.values())


class SharedMemFabric(_SocketPairFabric):
    """Mesh of shared-memory rings, one per directed channel.

    Frames are written once into a per-(src, dst) SPSC ring
    (:class:`_ShmRing`), decoded in place on the receive side and freed
    as soon as they are decoded.  One socket pair per rank pair is the
    doorbell and the death signal (:class:`_SharedMemTransport`).
    Workers inherit the mappings and the sockets across ``fork``; a
    mapping outlives the segment's name, so the creator unlinks the
    segments (exactly once) in :meth:`close_all` — which the launcher
    calls as soon as every rank is started.
    """

    def __init__(self, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 ring_bytes: int = DEFAULT_RING_BYTES):
        super().__init__(num_shards, deadline_s, socket.socketpair)
        self.ring_bytes = ring_bytes
        self._creator_pid = os.getpid()
        self._unlinked = False
        self._rings: Dict[Tuple[int, int], _ShmRing] = {
            (s, d): _ShmRing.create(ring_bytes)
            for s in range(num_shards) for d in range(num_shards) if s != d
        }

    def transport(self, rank: int) -> Transport:
        rings_out = {d: self._rings[(rank, d)]
                     for d in range(self.num_shards) if d != rank}
        rings_in = {s: self._rings[(s, rank)]
                    for s in range(self.num_shards) if s != rank}
        return _SharedMemTransport(rank, self.num_shards, rings_out,
                                   rings_in, self._own_ends(rank),
                                   deadline_s=self.deadline_s)

    def close_other_ends(self, rank: int) -> None:
        """In a worker: drop every doorbell and ring not touching ``rank``."""
        super().close_other_ends(rank)
        for (s, d), ring in self._rings.items():
            if rank not in (s, d):
                ring.close()

    def close_all(self) -> None:
        """Drop everything; unlink the segments if we created them."""
        super().close_all()
        for ring in self._rings.values():
            ring.close()
        if not self._unlinked and os.getpid() == self._creator_pid:
            self._unlinked = True
            for ring in self._rings.values():
                ring.unlink()

    def __del__(self):
        try:
            self.close_all()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# TCP socket fabric
# ---------------------------------------------------------------------------

_RECV_CHUNK = 1 << 18


class _TCPTransport(Transport):
    """One rank's sockets of the TCP mesh, with per-peer stream decoders."""

    def __init__(self, rank: int, num_shards: int,
                 socks: Dict[int, socket.socket],
                 deadline_s: float = DEFAULT_DEADLINE_S):
        super().__init__(rank, num_shards, deadline_s=deadline_s)
        self._socks = socks
        self._decoders: Dict[int, FrameDecoder] = {
            p: FrameDecoder() for p in socks}
        self._ready: Dict[int, deque] = {p: deque() for p in socks}

    def _send_bytes(self, dst: int, data: bytes) -> None:
        sock = self._socks[dst]
        view = memoryview(data)
        off = 0
        deadline = time.monotonic() + self.deadline_s
        while off < len(data):
            try:
                off += sock.send(view[off:])
            except (BlockingIOError, InterruptedError):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"shard {self.rank}: tcp send to shard {dst} "
                        f"stalled for {self.deadline_s}s")
                # Drain inbound buffers while stalled: with symmetric
                # large exchanges every peer may be mid-send, and no
                # socket becomes writable until somebody reads.
                self._pump_incoming()
                select.select([], [sock], [], min(0.01, remaining))
            except (BrokenPipeError, ConnectionResetError, OSError):
                raise PeerGone("send", 0, dst) from None

    def _pump_incoming(self) -> None:
        """Opportunistically move readable bytes into the frame queues.

        Errors are swallowed here — EOF and corruption re-surface with
        proper attribution on the next :meth:`_poll_frame` of that peer.
        """
        by_sock = {s: p for p, s in self._socks.items()}
        try:
            readable, _, _ = select.select(list(by_sock), [], [], 0)
        except (ValueError, OSError):
            return
        for sock in readable:
            peer = by_sock[sock]
            try:
                chunk = sock.recv(_RECV_CHUNK)
            except OSError:
                continue
            if not chunk:
                continue
            try:
                self._ready[peer].extend(self._decoders[peer].feed(chunk))
            except FrameError:
                continue

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        ready = self._ready[src]
        if ready:
            return ready.popleft()
        sock = self._socks[src]
        try:
            readable, _, _ = select.select([sock], [], [], timeout_s)
        except (ValueError, OSError):
            raise PeerGone("recv", 0, src) from None
        if not readable:
            return None
        try:
            chunk = sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return None
        except (ConnectionResetError, OSError):
            raise PeerGone("recv", 0, src) from None
        if not chunk:
            raise PeerGone("recv", 0, src)
        try:
            frames = self._decoders[src].feed(chunk)
        except FrameError as exc:
            raise TransportError(
                f"shard {self.rank}: corrupt frame from shard {src}: {exc}"
            ) from exc
        ready.extend(frames)
        return ready.popleft() if ready else None

    def close(self) -> None:
        super().close()
        _close_sockets(self._socks.values())


class TCPFabric(_SocketPairFabric):
    """Full mesh of TCP socket pairs, pre-connected in the parent.

    Every pair is connected up front over loopback and the endpoints are
    inherited across ``fork``.
    """

    def __init__(self, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 host: str = "127.0.0.1"):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind((host, 0))
            listener.listen(max(1, num_shards * num_shards))
            addr = listener.getsockname()

            def connect() -> Tuple[socket.socket, socket.socket]:
                # Sequential connect-then-accept keeps the pairing
                # deterministic on the single accept queue.
                end_b = socket.create_connection(addr)
                end_a, _ = listener.accept()
                for sock in (end_a, end_b):
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                return end_a, end_b

            super().__init__(num_shards, deadline_s, connect)
        finally:
            listener.close()

    def transport(self, rank: int) -> Transport:
        return _TCPTransport(rank, self.num_shards, self._own_ends(rank),
                             deadline_s=self.deadline_s)


# ---------------------------------------------------------------------------
# Fabric registry
# ---------------------------------------------------------------------------

def fabric_for_backend(backend: str, num_shards: int,
                       deadline_s: float = DEFAULT_DEADLINE_S,
                       **kwargs) -> Fabric:
    """The fabric a gang on ``backend`` runs over.

    ``"loopback"`` is the in-process queue mesh (ranks are threads);
    ``"shm"`` and ``"tcp"`` select the shared-memory ring and TCP socket
    fabrics (ranks are forked processes).  Extra ``kwargs`` (e.g.
    ``ring_bytes``) go to the fabric constructor.
    """
    fabrics = {"loopback": LoopbackFabric, "shm": SharedMemFabric,
               "tcp": TCPFabric}
    if backend not in fabrics:
        raise ValueError(f"no fabric for backend {backend!r}; expected "
                         f"'loopback' or one of {PROCESS_BACKENDS}")
    return fabrics[backend](num_shards, deadline_s=deadline_s, **kwargs)
