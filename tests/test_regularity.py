"""Edge diagnostics: strong regularity, regularity, block-collapse widths."""

import time

import pytest

from simphom.delta import edge_map, identity_map
from simphom.exhibits import corpus
from simphom.regularity import (
    count_efficient_edges,
    edge_detects_degeneracy,
    is_regular,
    is_strongly_regular,
    satisfies_pr,
)
from simphom.simpset import (
    _collapses,
    boundary_delta,
    cell_simplex,
    delta,
    nerve_poset,
    product,
    quotient,
)


def squashed_triangle():
    """The triangle with its long edge collapsed to a point."""
    return quotient(delta(2), ["0,2"])


def collapsed_ball(q):
    """delta(q) with its whole boundary collapsed."""
    names = [c.name for c in boundary_delta(q).cells_of_dim(q - 1)]
    return quotient(delta(q), names)


# Slow references: every edge is pushed through apply_map.


def degenerate_edge(space, x, i, r):
    return space.apply_map(edge_map(i, r, x.degree), x).is_degenerate


def slow_is_regular(space):
    for c in space.cells:
        for i in range(c.dim):
            if degenerate_edge(space, cell_simplex(c), i, 1):
                return False, (c, i)
    return True, None


def slow_satisfies_pr(space, r):
    for degree in range(space.dim + r + 2):
        for x in space.simplices(degree):
            values = x.epi.values
            for i in range(degree - r + 1):
                if values[i] != values[i + r] and degenerate_edge(space, x, i, r):
                    return False, (x, i)
    return True, None


def slow_count_efficient_edges(space, x):
    return sum(not degenerate_edge(space, x, i, 1) for i in range(x.degree))


def slow_edge_detects_degeneracy(space, degree_cap):
    for degree in range(1, degree_cap + 1):
        for x in space.simplices(degree):
            bad = any(degenerate_edge(space, x, i, 1) for i in range(degree))
            if x.is_degenerate != bad:
                return False, (x, None)
    return True, None


REFERENCE_CORPUS = corpus(3, 200)
LANDMARKS = corpus(3)


class TestSlowReference:
    def test_predicates_match_their_references(self):
        # every width r = 1, 2, 3 on the landmarks, width 1 on the whole corpus
        cases = [(entry, r) for entry in LANDMARKS for r in (2, 3)]
        cases += [(entry, 1) for entry in REFERENCE_CORPUS]
        for entry, r in cases:
            space = entry.space
            pairs = [(satisfies_pr(space, r), slow_satisfies_pr(space, r))]
            if r == 1:
                cap = space.dim + 2
                pairs += [
                    (is_regular(space), slow_is_regular(space)),
                    (edge_detects_degeneracy(space, cap), slow_edge_detects_degeneracy(space, cap)),
                ]
            for fast, slow in pairs:
                assert (fast.verdict, fast.witness) == slow, (entry.name, r)

    def test_efficient_edge_counts_match_their_reference(self):
        for entry in REFERENCE_CORPUS:
            space = entry.space
            for degree in range(space.dim + 3):
                for x in space.simplices(degree):
                    assert count_efficient_edges(space, x) == slow_count_efficient_edges(
                        space, x
                    ), (entry.name, x)

    def test_predicates_never_call_apply_map(self, apply_map_calls):
        for space in [delta(3), squashed_triangle(), collapsed_ball(3)]:
            is_regular(space)
            satisfies_pr(space, 2)
            edge_detects_degeneracy(space, space.dim + 2)
            for x in space.simplices(space.dim + 1):
                count_efficient_edges(space, x)
        assert apply_map_calls == []


class TestStrongRegularity:
    def test_standard_simplices(self):
        for q in range(4):
            assert is_strongly_regular(delta(q))

    def test_nerves_and_products(self):
        chain = nerve_poset(["a", "b", "c"], {("a", "b"), ("b", "c"), ("a", "c")})
        assert is_strongly_regular(chain)
        assert is_strongly_regular(product(delta(1), delta(1)))

    def test_squashed_triangle_fails_with_witness(self):
        report = is_strongly_regular(squashed_triangle())
        assert not report
        cell, index = report.witness
        assert cell.name == "0,1,2" and index == 1

    def test_report_is_truthy_interface(self):
        good = is_strongly_regular(delta(1))
        assert bool(good) and good.witness is None


class TestRegularity:
    def test_squashed_triangle_is_regular_but_not_strongly(self):
        space = squashed_triangle()
        assert is_regular(space)
        assert not is_strongly_regular(space)

    def test_collapsed_ball_is_not_regular(self):
        report = is_regular(collapsed_ball(3))
        assert not report
        cell, index = report.witness
        assert cell.name == "0,1,2,3" and index == 0

    def test_strongly_regular_implies_regular(self):
        spaces = [
            delta(2),
            delta(3),
            product(delta(1), delta(2)),
            squashed_triangle(),
            quotient(delta(3), ["0,3"]),
            collapsed_ball(2),
            collapsed_ball(3),
        ]
        for space in spaces:
            if is_strongly_regular(space):
                assert is_regular(space)


class TestBlockCollapseProperty:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            satisfies_pr(delta(1), 0)
        with pytest.raises(ValueError):
            satisfies_pr(delta(3), 1, degree_cap=1)

    def test_standard_simplices_satisfy_all_widths(self):
        for q in range(3):
            for r in range(1, 4):
                assert satisfies_pr(delta(q), r)

    def test_squashed_triangle_widths(self):
        space = squashed_triangle()
        assert satisfies_pr(space, 1)
        report = satisfies_pr(space, 2)
        assert not report
        x, i = report.witness
        assert x.epi == identity_map(2) and x.generator.name == "0,1,2" and i == 0

    def test_collapsed_ball_fails_width_one(self):
        report = satisfies_pr(collapsed_ball(3), 1)
        assert not report
        x, i = report.witness
        assert x.epi.is_identity and x.generator.name == "0,1,2,3" and i == 0

    def test_huge_width_without_degenerate_edges_answers_at_once(self):
        start = time.perf_counter()
        assert satisfies_pr(delta(2), 10**6)
        assert time.perf_counter() - start < 1

    def test_a_violation_at_a_large_width_keeps_no_degree(self):
        # the least witness lies on the triangle, the one cell with a
        # degenerate edge; no list of degree-200 simplices is built for it,
        # and no shape table keeps its collapses
        space = squashed_triangle()
        _collapses.cache_clear()
        start = time.perf_counter()
        report = satisfies_pr(space, 200)
        assert time.perf_counter() - start < 1
        assert not report
        x, i = report.witness
        assert (x.generator.name, x.degree, i) == ("0,1,2", 200, 0)
        assert x.epi.values == (0,) * 199 + (1, 2)
        assert 200 not in vars(space)["_simplex_cache"]
        assert _collapses.cache_info().currsize == 0

    def test_default_cap_matches_larger_caps(self):
        # raising the cap beyond the default never changes the verdict
        for space in [squashed_triangle(), collapsed_ball(2), delta(2)]:
            for r in (1, 2):
                default = satisfies_pr(space, r)
                deeper = satisfies_pr(space, r, degree_cap=space.dim + r + 3)
                assert default.verdict == deeper.verdict


class TestEdgeDetection:
    def test_efficient_edge_count(self):
        space = delta(2)
        top = cell_simplex(space.cell("0,1,2"))
        x = space.degeneracy(top, 0)  # degree 3, one collapsed edge
        assert count_efficient_edges(space, x) == 2
        assert count_efficient_edges(space, top) == 2

    def test_efficient_edges_bounded_by_generator_dim(self):
        space = product(delta(1), delta(1))
        for degree in range(4):
            for x in space.simplices(degree):
                assert count_efficient_edges(space, x) <= x.generator.dim

    def test_detection_on_regular_spaces(self):
        for space in [delta(2), delta(3), squashed_triangle()]:
            assert edge_detects_degeneracy(space, space.dim + 2)

    def test_detection_fails_on_collapsed_ball(self):
        report = edge_detects_degeneracy(collapsed_ball(3), 4)
        assert not report
        x, _ = report.witness
        # the witness is nondegenerate yet all its elementary edges collapse
        assert not x.is_degenerate

    def test_detection_agrees_with_regularity(self):
        spaces = [
            delta(1),
            delta(2),
            squashed_triangle(),
            quotient(delta(3), ["0,3"]),
            collapsed_ball(2),
            collapsed_ball(3),
            product(delta(1), delta(1)),
        ]
        for space in spaces:
            cap = space.dim + 2
            assert bool(is_regular(space)) == bool(edge_detects_degeneracy(space, cap))
