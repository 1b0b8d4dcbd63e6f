"""Independent counting routes and their agreement with the path engine."""

import ast
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
from simphom.simpset import boundary_delta, delta, horn, product, quotient


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
    # face_table and act serve the engine's search; the oracle computes
    # every face through face/apply_map so that the two routes share no
    # face data
    tree = ast.parse(Path(simphom.oracle.__file__).read_text(encoding="utf-8"))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("face_table", "act")
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
