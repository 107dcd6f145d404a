from hypothesis import given, settings, strategies as st

from equimatch.graph import generate
from equimatch.graphtools import check_numeric_logconcavity, logconcavity_violations
from equimatch.matchings import MatchingTable, is_matching, matching_table
from oracles import brute_force_counts, brute_force_matchings, enumerate_matchings


def test_c6_level_counts(c6):
    assert len(enumerate_matchings(c6, 1)) == 6
    assert enumerate_matchings(c6, 1) == brute_force_matchings(c6, 1)
    assert len(enumerate_matchings(c6, 3)) == 2
    assert enumerate_matchings(c6, 3) == brute_force_matchings(c6, 3)


def test_k_zero_is_single_empty(c6, path4, petersen):
    for g in (c6, path4, petersen):
        assert enumerate_matchings(g, 0) == [0]


def test_tables(c6, path4, petersen):
    assert matching_table(c6).counts == (1, 6, 9, 2)
    assert matching_table(c6).r == 3
    assert matching_table(path4).counts == (1, 3, 1)
    # frozen from the brute-force oracle (the spec's transcription of m_4 is
    # off by three; see also the Petersen matching polynomial)
    assert matching_table(petersen).counts == (1, 15, 75, 145, 90, 6)
    assert tuple(brute_force_counts(petersen)) == (1, 15, 75, 145, 90, 6)


def test_output_sorted_by_bitset_value(c6):
    for k in range(4):
        lvl = enumerate_matchings(c6, k)
        assert lvl == sorted(lvl)


def test_beyond_maximum_is_empty(path4):
    assert enumerate_matchings(path4, 3) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_enumeration_matches_bruteforce(n, num, seed):
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    for k in range(0, 4):
        assert enumerate_matchings(g, k) == brute_force_matchings(g, k)


def test_monotone_support(c6, petersen):
    for g in (c6, petersen):
        t = matching_table(g)
        for k in range(1, t.r + 1):
            lower = set(t.level(k - 1))
            for m in t.level(k):
                assert any((m & ~(1 << i)) in lower for i in range(g.num_edges)
                           if m >> i & 1)


def test_all_levels_are_matchings(petersen):
    t = matching_table(petersen)
    for k in range(t.r + 1):
        for m in t.level(k):
            assert m.bit_count() == k and is_matching(petersen, m)


def test_logconcavity_examples(c6, path4):
    t6 = matching_table(c6)
    triples = {(l, k): s for (l, k, s) in check_numeric_logconcavity(t6)}
    assert triples[(2, 2)] == 9 * 9 - 6 * 2 == 69
    tp = matching_table(path4)
    trip = {(l, k): s for (l, k, s) in check_numeric_logconcavity(tp)}
    assert trip[(1, 1)] == 3 * 3 - 1 * 1 == 8
    # top corner slack is m_r squared
    assert triples[(3, 3)] == 2 * 2
    assert not logconcavity_violations(t6)
    assert not logconcavity_violations(tp)


def test_every_slot_has_one_slack(c6, path4, petersen):
    for g in (c6, path4, petersen):
        t = matching_table(g)
        slots = [(l, k) for (l, k, _) in check_numeric_logconcavity(t)]
        assert sorted(slots) == [(l, k) for l in range(1, t.r + 1) for k in range(l, t.r + 1)]
        # the table's one slot order: by k, then by l
        assert slots == list(t.slots) == sorted(slots, key=lambda slot: slot[::-1])
    assert matching_table(generate("path:1")).slots == ()


def test_a_table_with_m1_squared_below_m2_violates_logconcavity(c6):
    # C6's level 1 cut to two edges: m = [1, 2, 9, 2], and m_1^2 - m_0 m_2 = 4 - 9;
    # cut to three edges, the slack is 0, which is no violation
    t = matching_table(c6)

    def cut(edges):
        return MatchingTable(c6, (t.level(0), t.level(1)[:edges], t.level(2), t.level(3)))

    assert logconcavity_violations(cut(2)) == [(1, 1, -5)]
    assert (1, 1, 0) in check_numeric_logconcavity(cut(3))
    assert logconcavity_violations(cut(3)) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_logconcavity_never_violated(n, num, seed):
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    assert not logconcavity_violations(matching_table(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_table_levels_match_bruteforce(n, num, seed):
    """The one-pass table holds every level, sorted, and nothing past the top."""
    g = generate(f"gnp:{n}:{num}:6:{seed}")
    counts = brute_force_counts(g)
    t = matching_table(g)
    assert t.counts == tuple(counts)
    for k in range(len(counts)):
        assert list(t.level(k)) == brute_force_matchings(g, k)


def test_the_pairs_of_two_levels_come_in_index_order(c6):
    t = matching_table(c6)
    for a, b in [(0, 3), (1, 2), (2, 1), (3, 4)]:
        pairs = list(t.pairs(a, b))
        assert len(pairs) == t.m(a) * t.m(b)
        assert pairs == sorted(pairs)
        for j, (x, y) in enumerate(pairs):
            assert (x, y) == (t.level(a)[j // t.m(b)], t.level(b)[j % t.m(b)])
