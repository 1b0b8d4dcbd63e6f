"""Ordinal maps: composition, factorisation, words, commutation tables."""

import pytest
from hypothesis import given, strategies as st

from simphom.delta import (
    MonotoneMap,
    SurjectionWord,
    collapse_map,
    compose_monotone,
    degeneracy_map,
    edge_map,
    epi_mono_factor,
    face_map,
    identity_map,
    surjection_from_repeats,
    surjection_to_word,
    word_to_surjection,
)


def monotone_maps(max_dim=4):
    def build(draw_src_tgt):
        src, tgt, seed = draw_src_tgt
        values = []
        cur = seed[0] % (tgt + 1)
        for step in seed[1 : src + 1]:
            values.append(cur)
            cur = min(tgt, cur + step % 3)
        values.append(cur)
        # values has src+1 entries but the loop above appends src of them
        while len(values) < src + 1:
            values.append(cur)
        return MonotoneMap(src, tgt, tuple(values[: src + 1]))

    return st.tuples(
        st.integers(0, max_dim),
        st.integers(0, max_dim),
        st.lists(st.integers(0, 5), min_size=max_dim + 2, max_size=max_dim + 2),
    ).map(build)


class TestMonotoneMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneMap(1, 1, (1, 0))  # not monotone
        with pytest.raises(ValueError):
            MonotoneMap(1, 1, (0, 2))  # out of range
        with pytest.raises(ValueError):
            MonotoneMap(1, 1, (0,))  # wrong arity

    def test_call_and_flags(self):
        f = MonotoneMap(2, 1, (0, 0, 1))
        assert [f(i) for i in range(3)] == [0, 0, 1]
        assert f.is_surjective and not f.is_injective
        assert identity_map(3).is_identity
        assert f.repeat_positions() == (0,)

    def test_special_maps(self):
        assert face_map(1, 2).values == (0, 2)
        assert degeneracy_map(1, 2).values == (0, 1, 1, 2)
        assert edge_map(1, 2, 4).values == (1, 3)
        assert collapse_map(3).values == (0, 0, 0, 0)

    def test_compose(self):
        s = degeneracy_map(0, 1)  # [2] -> [1]
        d = face_map(0, 2)  # [1] -> [2]
        assert compose_monotone(s, d).values == (0, 1)  # lands as identity on [1]

    @given(monotone_maps(), monotone_maps(), monotone_maps())
    def test_compose_associative(self, f, g, h):
        # force composability by reinterpreting targets
        g = MonotoneMap(g.source, f.source, tuple(min(v, f.source) for v in g.values))
        h = MonotoneMap(h.source, g.source, tuple(min(v, g.source) for v in h.values))
        left = compose_monotone(compose_monotone(f, g), h)
        right = compose_monotone(f, compose_monotone(g, h))
        assert left == right


class TestFactorisation:
    def test_frozen_example(self):
        f = MonotoneMap(2, 2, (0, 0, 2))
        epi, mono = epi_mono_factor(f)
        assert epi.values == (0, 0, 1)
        assert mono.values == (0, 2)
        assert compose_monotone(mono, epi) == f

    @given(monotone_maps())
    def test_factor_recomposes(self, f):
        epi, mono = epi_mono_factor(f)
        assert epi.is_surjective
        assert mono.is_injective
        assert compose_monotone(mono, epi) == f

    def test_identity_factor(self):
        epi, mono = epi_mono_factor(identity_map(3))
        assert epi.is_identity and mono.is_identity


class TestSurjectionWords:
    def test_frozen_word(self):
        f = MonotoneMap(3, 1, (0, 0, 1, 1))
        assert surjection_to_word(f).indices == (2, 0)
        assert word_to_surjection(SurjectionWord(3, (2, 0))) == f

    def test_word_is_composite_of_collapses(self):
        # a word lists collapse positions applied outermost-first
        word = SurjectionWord(3, (2, 0))
        f = word_to_surjection(word)
        composite = compose_monotone(degeneracy_map(0, 1), degeneracy_map(2, 2))
        assert f == composite

    def test_round_trips(self):
        for p in range(5):
            for q in range(p + 1):
                seen = set()
                # enumerate all surjections [p] ->> [q] via repeat subsets
                from itertools import combinations

                for repeats in combinations(range(p), p - q):
                    f = surjection_from_repeats(p, repeats)
                    assert f.is_surjective
                    w = surjection_to_word(f)
                    assert word_to_surjection(w) == f
                    seen.add(f)
                assert len(seen) == len(list(combinations(range(p), p - q)))

    def test_word_validation(self):
        with pytest.raises(ValueError):
            SurjectionWord(3, (0, 2))  # not strictly decreasing
        with pytest.raises(ValueError):
            SurjectionWord(2, (5,))  # out of range

    def test_repeats_build_the_decoded_word(self):
        from itertools import combinations

        for p in range(8):
            for size in range(p + 1):
                for repeats in combinations(range(p), size):
                    word = SurjectionWord(p, sorted(repeats, reverse=True))
                    assert surjection_from_repeats(p, repeats) == word_to_surjection(word)
                    assert surjection_from_repeats(p, set(repeats)) == word_to_surjection(word)

    def test_repeats_out_of_range_are_rejected(self):
        for p, repeats in [(3, (3,)), (3, (-1,)), (0, (0,)), (4, (1, 5)), (3, (1, 1))]:
            with pytest.raises(ValueError):
                surjection_from_repeats(p, repeats)


class TestCommutationTables:
    """The two exhaustive commutation tables used throughout: how collapses
    and insertions move past two-point edge maps."""

    def test_degeneracy_past_edges(self):
        # s_k o phi(i, i+r) for all p <= 6
        for p in range(1, 7):
            for k in range(p):
                s = degeneracy_map(k, p - 1)
                for i in range(p):
                    for r in range(1, p - i + 1):
                        left = compose_monotone(s, edge_map(i, r, p))
                        if k < i:
                            want = edge_map(i - 1, r, p - 1)
                        elif k < i + r:
                            if r == 1:
                                want = MonotoneMap(1, p - 1, (i, i))
                            else:
                                want = edge_map(i, r - 1, p - 1)
                        else:
                            want = edge_map(i, r, p - 1)
                        assert left == want, (p, k, i, r)

    def test_face_past_elementary_edges(self):
        # d_k o phi(l, l+1) for all p <= 6
        for p in range(1, 7):
            for k in range(p + 2):
                d = face_map(k, p + 1)
                for l in range(p):
                    left = compose_monotone(d, edge_map(l, 1, p))
                    if k <= l:
                        want = edge_map(l + 1, 1, p + 1)
                    elif k == l + 1:
                        want = edge_map(l, 2, p + 1)
                    else:
                        want = edge_map(l, 1, p + 1)
                    assert left == want, (p, k, l)

    def test_frozen_single_case(self):
        # collapsing the middle of a long edge shortens it
        left = compose_monotone(degeneracy_map(1, 2), edge_map(0, 2, 3))
        assert left == edge_map(0, 1, 2)
