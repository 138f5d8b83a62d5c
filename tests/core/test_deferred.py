"""GC-deferred operations: consensus among the active shards (paper §4.3)."""

from repro.core.deferred import DeferredOpManager


class TestConsensus:
    def test_ready_only_after_all_shards(self):
        mgr = DeferredOpManager(3)
        mgr.announce(0, "regionA")
        assert mgr.poll() == []
        mgr.announce(1, "regionA")
        assert mgr.poll() == []
        mgr.announce(2, "regionA")
        assert mgr.poll() == ["regionA"]
        assert mgr.outstanding == 0

    def test_deterministic_insertion_order(self):
        """Ready ops come out in first-announced order regardless of the
        (shard-dependent!) order in which the remaining shards confirm."""
        mgr = DeferredOpManager(2)
        mgr.announce(0, "A")
        mgr.announce(0, "B")
        mgr.announce(1, "B")       # B confirmed before A...
        mgr.announce(1, "A")
        assert mgr.poll() == ["A", "B"]   # ...but A was announced first

    def test_partial_batches(self):
        mgr = DeferredOpManager(2)
        mgr.announce(0, "A")
        mgr.announce(1, "A")
        mgr.announce(0, "B")
        assert mgr.poll() == ["A"]
        assert mgr.outstanding == 1
        mgr.announce(1, "B")
        assert mgr.poll() == ["B"]

    def test_invalid_shard_rejected(self):
        import pytest
        mgr = DeferredOpManager(2)
        with pytest.raises(ValueError):
            mgr.announce(5, "A")

    def test_duplicate_announce_idempotent(self):
        mgr = DeferredOpManager(2)
        mgr.announce(0, "A")
        mgr.announce(0, "A")
        assert mgr.outstanding == 1
        mgr.announce(1, "A")
        assert mgr.poll() == ["A"]

