"""The gang launcher: the one place in ``src/`` where a rank is started.

A *gang* is N ranks of one program over one fabric.  How a rank is
started — thread or forked process, start method, daemon flag, which
copies of the mesh endpoints the launching process must let go of, how a
rank that will not exit is reaped — is decided here and nowhere else.
The three consumers (:class:`~repro.runtime.Runtime`'s replicas,
:class:`~repro.dist.runner.DistRunner`'s one-shot workers and
:class:`~repro.service.gang.ServiceGang`'s serving workers) differ only
in the ``main`` they hand to :meth:`Gang.spawn`.

Lifecycle: :meth:`Gang.spawn` each rank → :meth:`Gang.release_parent`
once → :meth:`Gang.collect` (one-shot gangs) or a conversation over the
per-rank :class:`Channel`\\ s (serving gangs) → :meth:`Gang.terminate`.
Live rejoin is :meth:`Gang.renew_fabric` followed by ``spawn`` for the
replaced ranks only.  ``docs/dist.md`` ("Gang lifecycle") has the long
form.

``main(transport, channel, *args)`` runs with the rank's claimed
:class:`~repro.dist.transport.Transport` and its end of a two-way
message :class:`Channel` to the launcher.  It reports by
``channel.send((status, payload))``; an exception escaping it is sent as
``("error", "Type: message")``, and the transport and channel are closed
behind it either way.  Closing is how a rank says it is gone: its peers'
receives raise :class:`~repro.dist.transport.PeerGone` and the
launcher's end of the channel raises :class:`ChannelClosed` once the
messages already sent have been read.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .transport import (DEFAULT_DEADLINE_S, PROCESS_BACKENDS, Fabric,
                        Transport, fabric_for_backend)

__all__ = ["Gang", "Channel", "ChannelClosed"]


class ChannelClosed(Exception):
    """The other end of a :class:`Channel` is gone (or this end is closed)."""


class Channel:
    """One end of a two-way message pipe between the launcher and a rank.

    The same three calls whether the rank is a thread (a pair of queues)
    or a process (a duplex ``multiprocessing`` pipe): :meth:`send` is
    safe from several threads of one end (a serving rank's heartbeat
    ticker shares the channel with its serve loop); :meth:`recv` returns
    the next message, or ``None`` when none arrives within ``timeout_s``
    (``None`` waits forever, ``0`` polls); both raise
    :class:`ChannelClosed` once the conversation is over.
    """

    def send(self, msg: tuple) -> None:
        raise NotImplementedError

    def recv(self, timeout_s: Optional[float] = None) -> Optional[tuple]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


_EOF = object()


class _QueueEnd(Channel):
    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue"):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    def send(self, msg: tuple) -> None:
        if self._closed:
            raise ChannelClosed
        self._outbox.put(msg)

    def recv(self, timeout_s: Optional[float] = None) -> Optional[tuple]:
        if self._closed:
            raise ChannelClosed
        try:
            msg = self._inbox.get(timeout=timeout_s)
        except queue.Empty:
            return None
        if msg is _EOF:
            self._inbox.put(_EOF)       # every later read sees it too
            raise ChannelClosed
        return msg

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_EOF)


class _PipeEnd(Channel):
    def __init__(self, conn: Any):
        self._conn = conn
        self._send_lock = threading.Lock()

    def send(self, msg: tuple) -> None:
        try:
            with self._send_lock:
                self._conn.send(msg)
        except (BrokenPipeError, OSError):
            raise ChannelClosed from None

    def recv(self, timeout_s: Optional[float] = None) -> Optional[tuple]:
        try:
            if not self._conn.poll(timeout_s):
                return None
            return self._conn.recv()
        except (EOFError, OSError):
            raise ChannelClosed from None

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


def _rank_main(fabric: Fabric, rank: int, channel: Channel,
               main: Callable[..., Any], args: Tuple[Any, ...]) -> None:
    """What every rank runs, on its own thread or in its own process."""
    transport = None
    try:
        fabric.close_other_ends(rank)
        transport = fabric.transport(rank)
        main(transport, channel, *args)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the launcher
        try:
            channel.send(("error", f"{type(exc).__name__}: {exc}"))
        except ChannelClosed:
            pass
    finally:
        if transport is not None:
            transport.close()
        channel.close()


class _Member:
    """One started rank: its thread/process handle and the launcher's
    end of its channel."""

    __slots__ = ("rank", "handle", "channel")

    def __init__(self, rank: int, handle: Any, channel: Channel):
        self.rank = rank
        self.handle = handle
        self.channel = channel


class Gang:
    """N ranks on ``backend``: threads for ``"loopback"``, forked
    processes for :data:`~repro.dist.transport.PROCESS_BACKENDS`.

    ``name`` prefixes every thread/process name (``{name}-{rank}``, plus
    ``g{generation}`` after a :meth:`renew_fabric`).  ``fabric_kwargs``
    go to the fabric constructor.
    """

    def __init__(self, backend: str, num_shards: int,
                 name: str = "repro-shard",
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 **fabric_kwargs: Any):
        self.backend = backend
        self.num_shards = num_shards
        self.name = name
        self.generation = 0
        #: Ranks are forked processes sharing nothing with the launcher
        #: (as opposed to threads sharing everything).
        self.forks = backend in PROCESS_BACKENDS
        # Fork keeps the already-imported code and whatever ``main`` and
        # its arguments close over without pickling any of it.
        self._ctx = multiprocessing.get_context("fork") if self.forks \
            else None
        self._fabric_args = dict(fabric_kwargs, deadline_s=deadline_s)
        self.fabric = fabric_for_backend(backend, num_shards,
                                         **self._fabric_args)
        self._members: Dict[int, _Member] = {}
        # Ranks replaced by a respawn: no longer addressed, still reaped.
        self._retired: List[_Member] = []

    # -- launch --------------------------------------------------------------

    def spawn(self, rank: int, main: Callable[..., Any],
              *args: Any) -> Channel:
        """Start ``rank`` running ``main(transport, channel, *args)``.

        Returns the launcher's end of the rank's channel.  Spawning a
        rank that is already occupied retires the occupant (the respawn
        half of live rejoin; :meth:`kill` it first, before
        :meth:`renew_fabric`) — no longer addressed, still reaped by
        :meth:`terminate`.
        """
        if rank in self._members:
            self._retired.append(self._members.pop(rank))
        label = f"{self.name}-{rank}" + (
            f"g{self.generation}" if self.generation else "")
        if self.forks:
            near, far = self._ctx.Pipe(duplex=True)
            ours, theirs = _PipeEnd(near), _PipeEnd(far)
            handle = self._ctx.Process(
                target=_rank_main,
                args=(self.fabric, rank, theirs, main, args),
                name=label, daemon=True)
            handle.start()
            far.close()                 # the child holds its own copy
        else:
            down, up = queue.Queue(), queue.Queue()
            ours, theirs = _QueueEnd(up, down), _QueueEnd(down, up)
            handle = threading.Thread(
                target=_rank_main,
                args=(self.fabric, rank, theirs, main, args),
                name=label, daemon=True)
            handle.start()
        self._members[rank] = _Member(rank, handle, ours)
        return ours

    def release_parent(self, keep: Optional[int] = None) -> None:
        """Let go of the launcher's copies of the mesh endpoints.

        Call once, after the last :meth:`spawn` of a batch.  A launcher
        that is itself rank ``keep`` (the Runtime's driver shard) drops
        every endpoint but that rank's; one that is no rank drops them
        all where the fabric needs it (fd-based meshes: a dead rank's
        peers only see EOF once no copy of its write ends survives).  The
        shm fabric keeps its segments mapped here — its crash detection
        runs off the status board, and the creator must live to unlink.
        """
        if keep is not None:
            self.fabric.close_other_ends(keep)
        elif self.fabric.parent_must_release:
            self.fabric.close_all()

    def renew_fabric(self) -> Fabric:
        """Swap in a fresh mesh, one generation on (live rejoin).

        Returns the superseded fabric; the caller ``close_all()``\\ s it
        once every survivor has been sent its :meth:`Fabric.claim` on the
        new one.
        """
        old = self.fabric
        self.generation += 1
        self.fabric = fabric_for_backend(self.backend, self.num_shards,
                                         **self._fabric_args)
        return old

    def process(self, rank: int) -> Any:
        """The thread or ``multiprocessing`` process currently (or last)
        occupying ``rank`` — for tests and chaos tooling that need a pid."""
        return self._members[rank].handle

    # -- supervise -----------------------------------------------------------

    def collect(self, timeout_s: float, grace_s: float = 5.0
                ) -> Tuple[Dict[int, Any], List[str]]:
        """One ``(status, payload)`` from every spawned rank, hard deadline.

        Returns ``(payloads, failures)``: ``payloads`` maps rank to the
        payload of each ``("ok", payload)``; ``failures`` holds one
        human-readable line per rank that reported an error, died
        silently, or said nothing in time.  Every spawned rank owes a
        message — silence is a failure, never a short result.

        All waits share **one** monotonic deadline (``timeout_s`` for
        reports, plus ``grace_s`` once — not per rank — for the ranks
        that did report to exit by themselves), so a wedged gang of N is
        given up on after ~1× the timeout, not N×.
        """
        payloads: Dict[int, Any] = {}
        failures: List[str] = []
        reported: List[_Member] = []
        deadline = time.monotonic() + timeout_s
        for rank in sorted(self._members):
            m = self._members[rank]
            try:
                msg = m.channel.recv(max(0.0, deadline - time.monotonic()))
            except ChannelClosed:
                failures.append(f"shard {rank}: died without a report "
                                f"({m.handle.name})")
                continue
            if msg is None:
                failures.append(f"shard {rank}: no report within "
                                f"{timeout_s:.0f}s ({m.handle.name})")
                continue
            reported.append(m)
            if msg[0] == "ok":
                payloads[rank] = msg[1]
            else:
                failures.append(f"shard {rank}: {msg[1]}")
        self._join(reported, deadline + grace_s)
        return payloads, failures

    @staticmethod
    def _join(members: List[_Member], deadline: float) -> None:
        for m in members:
            m.handle.join(max(0.0, deadline - time.monotonic()))

    def kill(self, rank: int) -> None:
        """Stop waiting on ``rank``: unblock its peers, end the conversation.

        Its peers' receives fail fast (:class:`PeerGone`) and the
        launcher's end of its channel reads :class:`ChannelClosed` once
        drained.  A process is SIGKILLed — not SIGTERMed, which a
        ``SIGSTOP``-ped (stalled) worker merely queues — and its pipe
        reports EOF by itself (it is closed in :meth:`terminate`, never
        here, where another thread may be polling it).  A thread cannot
        be killed: closing the channel makes it exit at its next read,
        or at its next collective.  Idempotent.
        """
        m = self._members[rank]
        self.fabric.mark_closed(rank)
        if not self.forks:
            m.channel.close()
            return
        try:
            if m.handle.is_alive():
                m.handle.kill()
        except (ValueError, OSError):   # already closed/reaped
            pass

    def terminate(self, grace_s: float = 0.0) -> None:
        """Reap every rank ever spawned and release the fabric.

        The no-orphans sweep.  ``grace_s`` is one shared allowance for
        ranks already told to finish (a serving gang's ``("stop",)``) to
        exit by themselves; whatever is still alive after it is killed
        as in :meth:`kill`, escalating SIGTERM → SIGKILL for processes.
        Idempotent and order-independent: a second call, a gang that
        already exited, an already-closed channel or a respawned rank
        dying mid-rejoin must never raise or leave a process behind.
        """
        members = self._retired + list(self._members.values())
        self._join(members, time.monotonic() + grace_s)
        for m in members:
            self.fabric.mark_closed(m.rank)
            m.channel.close()
            if self.forks:
                try:
                    if m.handle.is_alive():
                        m.handle.terminate()
                except (ValueError, OSError):
                    pass
        if self.forks:
            for m in members:
                try:
                    m.handle.join(5.0)
                    if m.handle.is_alive():  # pragma: no cover - last resort
                        m.handle.kill()
                        m.handle.join(5.0)
                except (ValueError, OSError):
                    pass
        else:
            # A poisoned thread leaves at its next channel read or
            # collective poll — milliseconds; one that is wedged elsewhere
            # cannot be killed, and waiting longer would not change that.
            self._join(members, time.monotonic() + 0.5)
        # Unlinks shm segments / closes whatever the launcher still
        # holds; a no-op the second time round.
        self.fabric.close_all()
