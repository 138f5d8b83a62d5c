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
* :class:`UnixFabric` (backend ``"shm"``, the name the CLIs, the
  benchmarks and CI select it by) — one ``socket.socketpair()`` stream
  per rank pair.
* :class:`TCPFabric` (backend ``"tcp"``) — one loopback TCP connection
  per rank pair.

The two process fabrics differ only in how they build a pair's ends:
both are a :class:`_SocketPairFabric`, pre-connected in the parent and
inherited across ``fork`` (a gang runs on one host), and both hand each
rank one :class:`_SocketTransport` that writes length-prefixed frames
(:mod:`repro.dist.frames`) onto the stream and splits them back out.
Every fabric encodes through :func:`~repro.dist.frames.encode_frame` and
decodes through the one in-place parse of :mod:`repro.dist.frames`.  The
control plane sends small frames — window digests, fence barriers,
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
* a receive **waits, it does not poll** — in ``select`` (the socket
  fabrics) or ``Queue.get`` (loopback) — for a frame, the peer's
  end-of-stream or its **hard deadline**, past which it raises
  :class:`~repro.faults.injector.CollectiveTimeout` with the caller's
  ``(kind, op)`` tag and the number of waits made;
* a dead peer is end-of-stream on every fabric — socket EOF on shm and
  tcp, a sentinel in the loopback queues — so it
  surfaces as :class:`PeerGone` (a ``CollectiveTimeout`` subclass) at
  once, after the frames it committed;
* a transport that has been :meth:`~Transport.close`\\ d rejects further
  ``send``/``recv`` with :class:`TransportError` — a secondary observer
  that cascade-closed its endpoints cannot silently push frames into a
  torn-down fabric.
"""

from __future__ import annotations

import queue
import select
import socket
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..faults.injector import CollectiveTimeout
from .frames import (Frame, FrameDecoder, FrameError, decode_frame,
                     encode_frame)

__all__ = ["TransportError", "PeerGone", "ReorderWindowExceeded",
           "Transport", "Fabric", "LoopbackFabric",
           "UnixFabric", "TCPFabric",
           "fabric_for_backend", "PROCESS_BACKENDS",
           "DEFAULT_DEADLINE_S", "DEFAULT_MAX_REORDER"]

#: Default hard deadline on every receive.  Generous for CI machines, but
#: finite: a dead peer turns into an exception, never a hang.
DEFAULT_DEADLINE_S = 30.0

#: Bound on the per-peer out-of-order window: a frame whose seq is this far
#: above the contiguous watermark is a protocol violation, not reordering.
DEFAULT_MAX_REORDER = 4096

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

    def _send_bytes(self, dst: int, data: bytes) -> None:
        """Transmit one encoded frame; :class:`PeerGone` if ``dst`` is
        closed."""
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
            self._send_bytes(dst, encode_frame(frame))
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
# Socket-pair fabrics (shm: AF_UNIX pairs, tcp: loopback TCP)
# ---------------------------------------------------------------------------

_RECV_CHUNK = 1 << 18


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


class _SocketTransport(Transport):
    """One rank's ends of a socket-pair mesh, with per-peer stream decoders.

    ``socks[p]`` is this rank's end of the stream it shares with peer
    ``p``; frames cross it length-prefixed and are split back out by a
    :class:`~repro.dist.frames.FrameDecoder`.  It reads EOF once ``p``'s
    process exits or its transport closes, which is how a dead peer is
    seen — after every byte ``p`` sent before.
    """

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
                        f"shard {self.rank}: send to shard {dst} "
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


class _SocketPairFabric(Fabric):
    """A mesh with one connected socket pair per unordered rank pair.

    ``_ends[(a, b)]`` (``a < b``) is ``(end_a, end_b)``, made by
    ``connect()`` in rank-pair order and non-blocking: rank ``a`` uses
    ``end_a`` and rank ``b`` uses ``end_b``.  The ends are inherited
    across ``fork``; each rank keeps only its own and the launcher drops
    all of them, so a rank's end reads EOF as soon as its peer's process
    exits or its transport closes.  Subclasses differ only in
    ``connect``.
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

    def transport(self, rank: int) -> Transport:
        own = {(b if rank == a else a): ends[(a, b).index(rank)]
               for (a, b), ends in self._ends.items() if rank in (a, b)}
        return _SocketTransport(rank, self.num_shards, own,
                                deadline_s=self.deadline_s)

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


class UnixFabric(_SocketPairFabric):
    """Full mesh of ``socket.socketpair()`` streams (AF_UNIX): the
    ``"shm"`` backend, one host, no address to bind."""

    def __init__(self, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S):
        super().__init__(num_shards, deadline_s, socket.socketpair)


class TCPFabric(_SocketPairFabric):
    """Full mesh of TCP socket pairs, connected in the parent over
    loopback: the ``"tcp"`` backend."""

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


# ---------------------------------------------------------------------------
# Fabric registry
# ---------------------------------------------------------------------------

def fabric_for_backend(backend: str, num_shards: int,
                       deadline_s: float = DEFAULT_DEADLINE_S) -> Fabric:
    """The fabric a gang on ``backend`` runs over.

    ``"loopback"`` is the in-process queue mesh (ranks are threads);
    ``"shm"`` and ``"tcp"`` select the AF_UNIX and the TCP socket-pair
    fabrics (ranks are forked processes).
    """
    fabrics = {"loopback": LoopbackFabric, "shm": UnixFabric,
               "tcp": TCPFabric}
    if backend not in fabrics:
        raise ValueError(f"no fabric for backend {backend!r}; expected "
                         f"'loopback' or one of {PROCESS_BACKENDS}")
    return fabrics[backend](num_shards, deadline_s=deadline_s)
