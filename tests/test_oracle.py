"""Independent counting routes and their agreement with the path engine."""

import ast
import copy
from fractions import Fraction
from pathlib import Path

import pytest

import simphom.oracle
from simphom.exhibits import corpus
from simphom.hom import enumerate_hom_simplices
from simphom.oracle import (
    OracleBudgetExceeded,
    brute_force_hom_count,
    count_monotone_lattice_maps,
    count_simplicial_maps,
)
from simphom.delta import identity_map
from simphom.simpset import (
    CellId,
    FormalSimplex,
    SimplicialSet,
    boundary_delta,
    delta,
    horn,
    product,
    quotient,
)


def test_oracle_does_not_import_the_engine():
    # the oracle is the slow cross-check of hom, so it must not share its code
    tree = ast.parse(Path(simphom.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "hom" for name in imported), imported


def test_oracle_never_reads_the_engine_face_tables():
    # face_table and act serve the engine's search, normal_values is the
    # rule face_table reads, and the shape tables are the per-shape half of
    # face_table, step_masks and act; the oracle computes every face through
    # face/apply_map so that the two routes share no face data
    engine = {
        "face_table",
        "act",
        "normal_values",
        "step_masks",
        "_offsets",
        "_collapse_values",
        "_collapses",
        "_collapse_ranks",
        "_face_plan",
        "_shape_masks",
    }
    tree = ast.parse(Path(simphom.oracle.__file__).read_text(encoding="utf-8"))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in engine)
        or (isinstance(node, ast.Name) and node.id in engine)
        or (isinstance(node, ast.alias) and node.name in engine)
    ]
    assert not reads, reads


class TestLatticeCounts:
    def test_frozen_values(self):
        assert count_monotone_lattice_maps(0, 0, 1) == 2
        assert count_monotone_lattice_maps(1, 1, 1) == 6
        assert count_monotone_lattice_maps(2, 1, 1) == 10
        assert count_monotone_lattice_maps(3, 1, 1) == 15
        assert count_monotone_lattice_maps(9, 1, 1) == 66
        assert count_monotone_lattice_maps(6, 2, 1) == 120

    def test_symmetry_in_grid_axes(self):
        # transposing the grid swaps p and n
        for p in range(4):
            for n in range(4):
                for q in range(1, 3):
                    assert count_monotone_lattice_maps(p, n, q) == (
                        count_monotone_lattice_maps(n, p, q)
                    )

    def test_macmahon_box_formula(self):
        # grid functions monotone both ways are plane partitions in a
        # (p + 1) x (n + 1) x q box, counted by MacMahon's product formula
        for p in range(5):
            for n in range(4):
                for q in range(4):
                    box = Fraction(1)
                    for i in range(1, p + 2):
                        for j in range(1, n + 2):
                            for k in range(1, q + 1):
                                box *= Fraction(i + j + k - 1, i + j + k - 2)
                    assert box.denominator == 1
                    assert count_monotone_lattice_maps(p, n, q) == box, (p, n, q)

    def test_height_zero_counts_simplices(self):
        for p in range(5):
            for q in range(3):
                assert count_monotone_lattice_maps(p, 0, q) == len(delta(q).simplices(p))


class TestBruteForce:
    def test_self_maps_of_interval(self):
        # simplicial maps delta(1) -> delta(1): one per 1-simplex of the target
        assert count_simplicial_maps(delta(1), delta(1)) == 3

    def test_maps_to_point(self):
        for domain in [delta(2), boundary_delta(2), product(delta(1), delta(1))]:
            assert count_simplicial_maps(domain, delta(0)) == 1

    def test_maps_from_point(self):
        assert count_simplicial_maps(delta(0), delta(2)) == 3

    def test_boundary_into_interval(self):
        # triangle boundary -> interval: a map is a monotone 0/1 labelling
        # of the three vertices, extended uniquely over each edge
        assert count_simplicial_maps(boundary_delta(2), delta(1)) == 4

    def test_domain_with_more_cells_than_the_recursion_limit(self):
        # delta(9) x delta(0) has 1023 cells, one search level each
        assert brute_force_hom_count(delta(0), delta(0), 9) == 1

    def test_node_accounting_is_frozen(self):
        # the smallest budget that succeeds is the number of candidates the
        # search tries, so it pins the cell order, the pools and the pruning
        square = next(e.space for e in corpus() if e.name == "square")
        cases = [
            (product(delta(2), delta(1)), delta(2), 50, 1502),
            (product(delta(1), delta(1)), quotient(delta(2), ["0,2"]), 13, 134),
            (product(delta(2), delta(2)), square, 400, 41108),
            (boundary_delta(3), horn(2, 1), 9, 138),
        ]
        for domain, target, count, budget in cases:
            assert count_simplicial_maps(domain, target, node_budget=budget) == count
            with pytest.raises(OracleBudgetExceeded):
                count_simplicial_maps(domain, target, node_budget=budget - 1)

    def test_budget_exhaustion(self):
        with pytest.raises(OracleBudgetExceeded):
            count_simplicial_maps(product(delta(2), delta(2)), delta(2), node_budget=10)

    def test_negative_width_is_rejected_by_name(self):
        before = simphom.oracle._domain.cache_info()
        with pytest.raises(ValueError, match="width must be non-negative, got -1"):
            brute_force_hom_count(delta(1), delta(1), -1)
        assert simphom.oracle._domain.cache_info() == before


def _edge(tail, head):
    # one edge between the vertices a and b, running from tail to head
    a, b, e = CellId(0, "a"), CellId(0, "b"), CellId(1, "e")
    ends = {"a": a, "b": b}
    faces = {e: tuple(FormalSimplex(identity_map(0), ends[v]) for v in (head, tail))}
    return SimplicialSet([a, b, e], faces)


class TestDomainMemo:
    memo = staticmethod(simphom.oracle._domain)

    def setup_method(self):
        self.memo.cache_clear()

    def test_equal_presentations_share_one_entry(self):
        first, second = delta(2), delta(2)
        assert first is not second
        expected = count_monotone_lattice_maps(1, 2, 1)
        assert brute_force_hom_count(first, delta(1), 1) == expected
        assert brute_force_hom_count(second, delta(1), 1) == expected
        info = self.memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_the_memo_stays_within_its_bound(self):
        sources = [delta(0), delta(1), delta(2), boundary_delta(2), horn(2, 1),
                   quotient(delta(2), ["0,2"])]
        for width in range(3):
            for source in sources:
                assert brute_force_hom_count(source, delta(0), width) == 1
        info = self.memo.cache_info()
        assert info.misses == 18 > info.maxsize
        assert info.currsize == info.maxsize == 16

    def test_the_key_reads_face_entries_not_only_cells(self):
        forward, backward = _edge("a", "b"), _edge("b", "a")
        assert forward.cells == backward.cells
        assert forward.faces != backward.faces
        for source in (forward, backward):
            assert brute_force_hom_count(source, delta(1), 1) == 6
        info = self.memo.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        for source in (forward, backward):
            key = (1, source.cells, tuple(source.faces[c] for c in source.cells))
            assert self.memo(*key).faces == product(delta(1), source).faces

    def test_a_memo_hit_counts_like_a_fresh_product(self):
        for entry in corpus()[:12]:
            for n, p in ((1, 1), (2, 1), (1, 2)):
                brute_force_hom_count(delta(n), entry.space, p)
                hits = self.memo.cache_info().hits
                count = brute_force_hom_count(delta(n), entry.space, p)
                assert self.memo.cache_info().hits == hits + 1
                fresh = count_simplicial_maps(product(delta(p), delta(n)), entry.space)
                assert count == fresh, (entry.name, n, p)

    def test_a_count_adds_no_state_to_its_spaces(self):
        # the target fills its own per-degree caches; the source is only
        # read for its presentation, so not even its caches change
        source, target = horn(2, 1), quotient(delta(2), ["0,2"])

        def state():
            return {k: copy.copy(v) for k, v in vars(source).items()}, set(vars(target))

        before = state()
        for _ in range(2):
            assert brute_force_hom_count(source, target, 1) > 0
        assert state() == before


class TestAgreement:
    def test_interval_case_three_ways(self):
        space = delta(1)
        for p in range(3):
            engine = len(enumerate_hom_simplices(space, 1, p))
            brute = brute_force_hom_count(space, space, p)
            lattice = count_monotone_lattice_maps(p, 1, 1)
            assert engine == brute == lattice

    def test_triangle_target_two_ways(self):
        space = delta(2)
        for (n, p) in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            engine = len(enumerate_hom_simplices(space, n, p))
            brute = brute_force_hom_count(delta(n), space, p)
            lattice = count_monotone_lattice_maps(p, n, 2)
            assert engine == brute == lattice

    def test_irregular_target_two_ways(self):
        space = quotient(delta(2), ["0,2"])
        for (n, p) in [(1, 0), (1, 1), (1, 2), (2, 1)]:
            engine = len(enumerate_hom_simplices(space, n, p))
            brute = brute_force_hom_count(delta(n), space, p)
            assert engine == brute

    def test_horn_target_two_ways(self):
        space = horn(2, 1)
        for (n, p) in [(1, 1), (1, 2), (2, 1)]:
            engine = len(enumerate_hom_simplices(space, n, p))
            brute = brute_force_hom_count(delta(n), space, p)
            assert engine == brute

    def test_three_dimensional_source_over_the_small_landmarks(self):
        # n = 3 is the first height where a one-cell slot carries three or
        # more flip checks, so the checks after a slot's second are read
        checked = 0
        for entry in corpus():
            if len(entry.space.cells) > 12:
                continue
            for p in (0, 1):
                engine = len(enumerate_hom_simplices(entry.space, 3, p))
                brute = brute_force_hom_count(delta(3), entry.space, p)
                assert engine == brute, (entry.name, p, engine, brute)
                checked += 1
        assert checked >= 20
