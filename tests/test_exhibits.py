"""Extremal simplices, the clamped-shift counterexample, and the corpus."""

import pytest

from simphom.exhibits import (
    CorpusEntry,
    LatticeFunction,
    clamp,
    corpus,
    hom1_degeneracy_test,
    hom_to_lattice,
    interval_component,
    lattice_to_hom,
    lurie_family,
    tight_simplex,
)
from simphom.hom import (
    almost_degenerate_at,
    enumerate_hom_simplices,
    is_degenerate_hom,
    validate_hom_simplex,
)
from simphom.regularity import is_regular
from simphom.simpset import boundary_delta, delta, is_isomorphic, quotient


class TestClamp:
    def test_values(self):
        assert clamp(-3, 0, 4) == 0
        assert clamp(2, 0, 4) == 2
        assert clamp(9, 0, 4) == 4


class TestLatticeFunctions:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeFunction(1, 1, 2, ((0, 1), (1, 0)))  # not monotone vertically
        with pytest.raises(ValueError):
            LatticeFunction(1, 1, 2, ((0, 1), (0, 3)))  # value out of range
        with pytest.raises(ValueError):
            LatticeFunction(1, 1, 2, ((0, 1),))  # wrong width

    def test_columns(self):
        fn = LatticeFunction(2, 1, 2, ((0, 0), (0, 1), (1, 1)))
        assert fn.column(1) == (0, 1)
        assert fn.value(2, 0) == 1
        assert fn.degenerate_columns() == ()
        flat = LatticeFunction(1, 1, 2, ((0, 1), (0, 1)))
        assert flat.degenerate_columns() == (0,)

    def test_round_trip_through_engine(self):
        space = delta(2)
        for f in enumerate_hom_simplices(space, 1, 2):
            fn = hom_to_lattice(f)
            assert lattice_to_hom(space, fn) == f

    def test_target_mismatch(self):
        with pytest.raises(ValueError):
            lattice_to_hom(delta(1), tight_simplex(1, 2))


class TestTightSimplex:
    def test_frozen_interval_case(self):
        fn = tight_simplex(1, 1)
        assert fn.table == ((0, 0), (0, 1), (1, 1))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tight_simplex(-1, 2)
        with pytest.raises(ValueError):
            tight_simplex(1, 0)

    def test_column_sums_strictly_increase(self):
        for n in range(1, 4):
            for q in range(1, 4):
                fn = tight_simplex(n, q)
                sums = [sum(fn.column(i)) for i in range(fn.width + 1)]
                assert all(a < b for a, b in zip(sums, sums[1:]))
                assert fn.degenerate_columns() == ()

    def test_realises_dimension_ceiling(self):
        for n in range(1, 3):
            for q in range(1, 3):
                f = lattice_to_hom(delta(q), tight_simplex(n, q))
                assert f.width == (n + 1) * q
                assert not is_degenerate_hom(f)

    def test_extreme_corners(self):
        fn = tight_simplex(2, 2)
        assert fn.column(0) == (0, 0, 0)
        assert fn.column(fn.width) == (2, 2, 2)


class TestClampedShiftFamily:
    def test_frozen_component(self):
        space, f = lurie_family(4, 3)
        z2 = interval_component(f, 2)
        # the crossing-2 component is the clamped shift by one
        assert z2.generator.name == "0,1,2,3"
        assert z2.epi.values == (0, 0, 1, 2, 3, 3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lurie_family(4, 2)  # q too small for an anchor
        with pytest.raises(ValueError):
            lurie_family(3, 3)  # width must exceed q
        with pytest.raises(ValueError):
            lurie_family(5, 4, anchor=3)  # anchor facet pair undefined
        with pytest.raises(ValueError):
            lurie_family(5, 3, facets=[frozenset({0, 2, 3})])  # missing facet

    def test_facets_must_be_proper(self):
        with pytest.raises(ValueError):
            lurie_family(4, 3, facets=[frozenset(range(4)), frozenset({0, 2, 3}), frozenset({0, 1, 3})])

    def test_all_columns_degenerate_yet_simplex_is_not(self):
        for p, q in [(4, 3), (7, 3), (5, 4)]:
            space, f = lurie_family(p, q)
            assert validate_hom_simplex(f)
            assert not is_regular(space)
            assert all(almost_degenerate_at(f, k) for k in range(p))
            assert not is_degenerate_hom(f)

    def test_frozen_tokens_of_every_component(self):
        _, f = lurie_family(4, 3)
        assert [v.token() for v in f.values] == [
            "s2s1s0:0,1,2",
            "s1s0:0,1,2,3",
            "s4s0:0,1,2,3",
            "s4s3:0,1,2,3",
            "s4s3s2:1,2,3",
        ]
        everything = frozenset(range(4))
        _, f = lurie_family(4, 3, facets=[everything - {v} for v in range(4)])
        # the outer components collapse onto the point the facets became
        assert [v.token() for v in f.values] == [
            "s4s3s2s1s0:*",
            "s1s0:0,1,2,3",
            "s4s0:0,1,2,3",
            "s4s3:0,1,2,3",
            "s4s3s2s1s0:*",
        ]

    def test_full_facet_collapse_variant(self):
        everything = frozenset(range(4))
        facets = [everything - {v} for v in range(4)]
        space, f = lurie_family(4, 3, facets=facets)
        assert sorted(c.dim for c in space.cells) == [0, 3]
        assert not is_degenerate_hom(f)


class TestIntervalDegeneracyCriterion:
    def test_matches_retraction_test(self):
        spaces = [
            delta(1),
            delta(2),
            quotient(delta(2), ["0,2"]),
            quotient(delta(2), [c for c in delta(2).cells if c.dim == 1]),
        ]
        for space in spaces:
            for p in range(1, 4):
                for f in enumerate_hom_simplices(space, 1, p):
                    direct = is_degenerate_hom(f)
                    columnwise = any(hom1_degeneracy_test(f, k) for k in range(p))
                    assert direct == columnwise

    def test_width_zero_is_never_degenerate(self):
        f = enumerate_hom_simplices(delta(1), 1, 0)[0]
        assert hom1_degeneracy_test(f, 0) is False

    def test_position_out_of_range(self):
        f = enumerate_hom_simplices(delta(1), 1, 1)[0]
        with pytest.raises(ValueError):
            hom1_degeneracy_test(f, 3)

    def test_rejects_non_hom_input(self):
        with pytest.raises(TypeError):
            hom1_degeneracy_test(tight_simplex(1, 1), 0)


class TestCorpus:
    def test_landmarks_present(self):
        entries = corpus()
        names = [e.name for e in entries]
        assert "triangle/long-edge" in names
        assert "tetra/boundary" in names
        by_name = {e.name: e for e in entries}
        assert is_isomorphic(
            by_name["triangle/long-edge"].space, quotient(delta(2), ["0,2"])
        )
        ball = quotient(delta(3), [c for c in delta(3).cells if c.dim == 2])
        assert is_isomorphic(by_name["tetra/boundary"].space, ball)

    def test_deterministic(self):
        a = corpus(seed=11, count=40)
        b = corpus(seed=11, count=40)
        assert [e.name for e in a] == [e.name for e in b]
        for x, y in zip(a, b):
            assert sorted(c.name for c in x.space.cells) == sorted(
                c.name for c in y.space.cells
            )
        c = corpus(seed=12, count=40)
        assert any(
            sorted(c1.name for c1 in x.space.cells) != sorted(c2.name for c2 in y.space.cells)
            for x, y in zip(a, c)
        )

    def test_budget_respected(self):
        for entry in corpus(seed=3, count=60, size_budget=25):
            assert len(entry.space.cells) <= 60  # landmarks are small anyway
            if entry.name.startswith("rnd"):
                assert len(entry.space.cells) <= 25

    def test_flags_agree_with_diagnostics(self):
        for entry in corpus(seed=0, count=40):
            if entry.regular is not None:
                assert bool(is_regular(entry.space)) == entry.regular, entry.name

    def test_count_none_gives_landmarks_only(self):
        entries = corpus()
        assert all(not e.name.startswith("rnd") for e in entries)
        assert len(entries) >= 10

    def test_has_both_regularity_kinds(self):
        entries = corpus()
        flags = {bool(is_regular(e.space)) for e in entries}
        assert flags == {True, False}
