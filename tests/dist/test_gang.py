"""The gang launcher's channel and kill semantics, threads and forks alike.

Deadlines, silent ranks and the no-orphan sweep are in
``test_runner_timeouts.py``; this file holds what a *conversation* with a
rank guarantees, on a thread gang and on a process gang.
"""

import sys
import threading
import time

import pytest

from repro.dist import ChannelClosed, Gang, PeerGone

GANGS = ["loopback", "tcp", "shm"]


def _echo_then_fail(transport, channel):
    tag, value = channel.recv()
    channel.send(("echo", (transport.rank, tag, value)))
    raise ValueError("boom")


@pytest.mark.parametrize("backend", GANGS)
def test_channel_is_two_way_and_escaping_errors_are_forwarded(backend):
    gang = Gang(backend, 2)
    try:
        channels = {r: gang.spawn(r, _echo_then_fail) for r in range(2)}
        gang.release_parent()
        for rank, channel in channels.items():
            channel.send(("ping", rank * 10))
            assert channel.recv(10.0) == ("echo", (rank, "ping", rank * 10))
        payloads, failures = gang.collect(timeout_s=10.0)
    finally:
        gang.terminate()
    assert payloads == {}
    assert failures == ["shard 0: ValueError: boom",
                        "shard 1: ValueError: boom"]
    # The rank closed its end behind the error: the conversation is over.
    with pytest.raises(ChannelClosed):
        channels[0].recv(1.0)


SENDERS, PER_SENDER = 8, 250


def _many_senders(transport, channel):
    def blast(sender):
        for i in range(PER_SENDER):
            channel.send(("msg", (sender, i, "x" * 64)))

    threads = [threading.Thread(target=blast, args=(s,), daemon=True)
               for s in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    channel.send(("ok", all(not t.is_alive() for t in threads)))


@pytest.mark.parametrize("backend", GANGS)
def test_concurrent_senders_share_one_channel_without_corruption(backend):
    """A service that gives up waiting for its dispatcher stops the gang
    the dispatcher may still be sending to; frames from concurrent
    senders on one end must arrive whole and in per-sender order (a lost
    or torn frame breaks the count or the unpickling)."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    gang = Gang(backend, 1)
    try:
        channel = gang.spawn(0, _many_senders)
        gang.release_parent()
        seen = {s: [] for s in range(SENDERS)}
        deadline = time.monotonic() + 30.0
        while True:
            msg = channel.recv(max(0.0, deadline - time.monotonic()))
            assert msg is not None, "channel stalled"
            if msg[0] == "ok":
                assert msg[1] is True
                break
            sender, i, body = msg[1]
            assert body == "x" * 64
            seen[sender].append(i)
    finally:
        sys.setswitchinterval(old)
        gang.terminate()
    assert all(seen[s] == list(range(PER_SENDER)) for s in range(SENDERS))


def _await_command(transport, channel):
    channel.send(("up", transport.rank))
    channel.recv()                       # parks until told, or until EOF


@pytest.mark.parametrize("backend", GANGS)
def test_kill_unblocks_peers_and_ends_the_conversation(backend):
    gang = Gang(backend, 2)
    try:
        victim = gang.spawn(1, _await_command)
        gang.release_parent(keep=0)
        transport = gang.fabric.transport(0)     # the launcher is rank 0
        assert victim.recv(10.0) == ("up", 1)
        gang.kill(1)
        gang.kill(1)                             # idempotent
        with pytest.raises(PeerGone):
            transport.recv(1, "barrier", 0, 0, timeout_s=10.0)
        deadline = time.monotonic() + 10.0
        with pytest.raises(ChannelClosed):
            while time.monotonic() < deadline:
                victim.recv(0.05)
        transport.close()
    finally:
        gang.terminate()
    assert not gang.process(1).is_alive()
