"""The fence rank channel (``repro.core.coarse.SeqStamps``): dense ranks
over program positions, the structure that makes ``covers`` O(1).

Program order is append-only, so the channel needs no labels — a sorted
position list plus a lazily extended rank array indexed by ``seq``.  The
cases pin rank/``covers`` answers against the naive count, including the
out-of-order insert that truncates a stale rank suffix.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coarse import SeqStamps


class TestSeqStamps:
    def test_empty(self):
        ss = SeqStamps()
        assert len(ss) == 0
        assert ss.fine_at(10) == 0
        assert ss.fine_at(-1) == 0
        assert not ss.covers(0, 100)
        ss.check_invariants()

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            SeqStamps().note(-1)

    def test_ranks_and_covers(self):
        ss = SeqStamps()
        for at in (2, 5, 5, 9):
            ss.note(at)
        assert [ss.fine_at(s) for s in range(11)] == \
            [0, 0, 1, 1, 1, 3, 3, 3, 3, 4, 4]
        assert ss.covers(1, 2)          # fence at 2 inside (1, 2]
        assert not ss.covers(2, 4)      # nothing in (2, 4]
        assert ss.covers(4, 5)          # the duplicate pair at 5
        assert not ss.covers(9, 50)
        ss.check_invariants()

    def test_out_of_order_note_truncates_stale_ranks(self):
        ss = SeqStamps()
        ss.note(6)
        assert ss.fine_at(10) == 1      # dense ranks now cover 0..10
        ss.note(3)                      # out of order: suffix is stale
        assert ss.fine_at(10) == 2
        assert ss.fine_at(3) == 1
        assert ss.positions() == [3, 6]
        ss.check_invariants()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 30), max_size=25),
           st.lists(st.tuples(st.integers(-2, 35), st.integers(-2, 35)),
                    max_size=25))
    def test_covers_matches_naive_count(self, notes, queries):
        ss = SeqStamps()
        for at in notes:
            ss.note(at)
        pos = sorted(notes)
        for e, l in queries:
            naive = any(e < p <= l for p in pos)
            assert ss.covers(e, l) == naive
            if l >= 0:
                assert ss.fine_at(l) == bisect_right(pos, l)
        ss.check_invariants()
