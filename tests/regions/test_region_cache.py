"""The region-pair memo is shared by the loopback backend's rank threads."""

import sys
import threading

from repro.regions import PairCache


def test_full_cache_resets_and_keeps_answering():
    cache = PairCache(maxsize=2)
    cache.put((0, 1), True)
    cache.put((0, 2), False)
    cache.put((0, 3), True)          # full: reset, then insert
    assert len(cache) == 1
    assert cache.get((0, 3)) is True
    assert cache.get((0, 1)) is None
    assert (cache.hits, cache.misses) == (1, 3)


def test_concurrent_lookups_and_evictions_never_raise():
    """A look-up whose key another thread evicts must miss, not raise."""
    cache = PairCache(maxsize=8)
    errors = []

    def hammer(seed):
        try:
            for i in range(50_000):
                key = (0, (7 * i + seed) % 12)
                if cache.get(key) is None:
                    cache.put(key, True)
        except Exception as exc:  # noqa: BLE001 - any raise is the bug
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
