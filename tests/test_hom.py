"""The path-indexed mapping-space engine."""

import math
import time
from collections import Counter
from itertools import combinations, islice

import pytest

from simphom.delta import (
    MonotoneMap,
    collapse_map,
    compose_monotone,
    degeneracy_map,
    edge_map,
    face_map,
    identity_map,
)
from simphom.exhibits import corpus, lurie_family
from simphom.hom import (
    HomDimension,
    HomFamily,
    HomSimplex,
    RegularityViolation,
    _degenerate_columns,
    _family_layout,
    _first_section,
    _has_vertex_cycle,
    _maximal_cells,
    _nondegenerate,
    _pieces,
    _written_simplex,
    almost_degenerate_at,
    dim_hom,
    dim_hom_general,
    edge_restriction,
    enumerate_hom_simplices,
    hom_bireindex,
    hom_complex,
    hom_degeneracy,
    hom_face,
    hom_general,
    hom_reindex,
    hom_simplex,
    hom_source_reindex,
    is_degenerate_family,
    is_degenerate_hom,
    iter_hom_families,
    iter_hom_simplices,
    lemma4_witness,
    normalize_hom,
    staircase_table,
    theorem1bis_bound,
    validate_hom_simplex,
)
from simphom.oracle import brute_force_hom_count, count_monotone_lattice_maps
from simphom.paths import all_paths, split_path_at_column
from simphom.regularity import is_regular
from simphom.simpset import (
    CellId,
    FormalSimplex,
    SimplicialSet,
    _face_closure,
    boundary_delta,
    cell_simplex,
    delta,
    disjoint_sum,
    horn,
    is_isomorphic,
    nerve_poset,
    product,
    quotient,
    subcomplex,
)


def collapsed_ball(q):
    names = [c.name for c in boundary_delta(q).cells_of_dim(q - 1)]
    return quotient(delta(q), names)


class TestConstruction:
    def test_a_rebuilt_simplex_equals_its_searched_original(self):
        # the search hands over positions, hom_simplex takes values: both
        # describe one simplex, with one hash and the same values
        for space in [delta(2), quotient(delta(2), ["0,2"]), collapsed_ball(2)]:
            for n, p in [(0, 2), (1, 2), (2, 1)]:
                for f in enumerate_hom_simplices(space, n, p):
                    g = hom_simplex(space, p, n, f.assignment())
                    assert g == f and hash(g) == hash(f)
                    assert all(x is y for x, y in zip(g.values, f.values))
                    assert g.positions == f.positions
        space = delta(1)
        f, g = enumerate_hom_simplices(space, 1, 1)[:2]
        assert f != g
        assert HomSimplex(space, 1, 1, f.values) == f
        assert HomSimplex(delta(1), 1, 1, f.values) != f  # another target

    def test_the_public_constructor_rejects_a_wrong_value_count(self):
        space = delta(2)
        f = enumerate_hom_simplices(space, 1, 2)[0]
        with pytest.raises(ValueError, match="grid has 3 paths, got 1 values"):
            HomSimplex(space, 2, 1, f.values[:1])
        with pytest.raises(ValueError, match="grid has 3 paths, got 4 values"):
            HomSimplex(space, 2, 1, f.values + f.values[:1])

    def test_the_public_constructor_rejects_a_negative_width_or_height(self):
        space = delta(1)
        with pytest.raises(ValueError, match="must be non-negative, got -1, 1"):
            HomSimplex(space, -1, 1, ())
        with pytest.raises(ValueError, match="must be non-negative, got 1, -1"):
            HomSimplex(space, 1, -1, ())

    def test_the_public_constructor_rejects_values_that_are_not_simplices_of_its_degree(self):
        space = delta(1)
        with pytest.raises(ValueError, match="simplex of degree 2"):
            HomSimplex(space, 1, 1, (0, 1))
        edge = cell_simplex(space.cell("0,1"))
        with pytest.raises(ValueError, match="simplex of degree 2"):
            HomSimplex(space, 1, 1, (edge, edge))  # degree 1 values
        other = enumerate_hom_simplices(delta(2), 1, 1)[-1]
        with pytest.raises(ValueError, match="not all simplices of degree 2 of the target"):
            HomSimplex(space, 1, 1, other.values)

    def test_search_results_are_built_from_positions(self):
        # enumeration, family components and hom_complex legends all hand
        # over a plain tuple of positions and build no value until read
        space = quotient(delta(2), ["0,2"])
        source = horn(2, 1)
        built = [
            *enumerate_hom_simplices(space, 1, 2),
            *(f for family in hom_general(source, space, 1) for f in family.values),
            *hom_complex(delta(2), 1)[1].values(),
        ]
        assert len(built) > 50
        for f in built:
            assert type(f) is HomSimplex
            assert type(f.positions) is tuple
            with pytest.raises(AttributeError):
                f._values
        for f in built:
            g = HomSimplex(f.space, f.width, f.height, f.values)
            assert f._values is f.values
            assert g == f and hash(g) == hash(f)
            assert g.positions == f.positions

    def test_vertex_of_mapping_space_is_target_simplex(self):
        space = delta(1)
        for f in enumerate_hom_simplices(space, 1, 0):
            assert f.width == 0 and f.height == 1
            assert len(f.values) == 1 and f.values[0].degree == 1

    def test_assignment_round_trip(self):
        space = delta(1)
        f = enumerate_hom_simplices(space, 1, 1)[0]
        rebuilt = hom_simplex(space, 1, 1, f.assignment())
        assert rebuilt == f
        assert validate_hom_simplex(f)

    def test_coverage_validation(self):
        space = delta(1)
        f = enumerate_hom_simplices(space, 1, 1)[0]
        partial = dict(list(f.assignment().items())[:1])
        with pytest.raises(ValueError):
            hom_simplex(space, 1, 1, partial)

    def test_degree_validation(self):
        space = delta(1)
        wrong = {p: cell_simplex(space.cell("0,1")) for p in all_paths(1, 1)}
        with pytest.raises(ValueError):
            hom_simplex(space, 1, 1, wrong)  # degree 1 values, expected 2

    def test_compatibility_validation(self):
        space = delta(1)
        sims = space.simplices(2)
        by_token = {s.token(): s for s in sims}
        # paths of (1,1) are HV, VH; a unit-square flip forces face agreement
        bad = {"HV": by_token["s1s0:0"], "VH": by_token["s1s0:1"]}
        with pytest.raises(ValueError):
            hom_simplex(space, 1, 1, bad)

    def test_value_lookup_by_word(self):
        space = delta(1)
        f = enumerate_hom_simplices(space, 1, 1)[0]
        for path in all_paths(1, 1):
            assert f.value(path) == f.value(path.word)


class TestEnumeration:
    def test_frozen_counts_interval_to_interval(self):
        space = delta(1)
        totals = [len(enumerate_hom_simplices(space, 1, p)) for p in range(4)]
        assert totals == [3, 6, 10, 15]
        nondeg = [
            sum(1 for f in enumerate_hom_simplices(space, 1, p) if not is_degenerate_hom(f))
            for p in range(4)
        ]
        assert nondeg == [3, 3, 1, 0]

    def test_stream_matches_cache(self):
        space = delta(2)
        assert tuple(iter_hom_simplices(space, 1, 2)) == enumerate_hom_simplices(space, 1, 2)

    def test_empty_target(self):
        void = SimplicialSet([], {})
        assert enumerate_hom_simplices(void, 1, 0) == ()

    def test_more_paths_than_the_recursion_limit(self):
        # 1035 lattice paths: the search depth must not follow the path count
        got = enumerate_hom_simplices(delta(0), 2, 44)
        assert len(got) == count_monotone_lattice_maps(44, 2, 0) == 1

    def test_negative_height_or_degree_is_rejected(self):
        with pytest.raises(ValueError, match="^n must be non-negative"):
            enumerate_hom_simplices(delta(1), -1, 1)
        with pytest.raises(ValueError, match="^p must be non-negative"):
            enumerate_hom_simplices(delta(1), 1, -1)
        with pytest.raises(ValueError, match="^p must be non-negative"):
            next(iter_hom_simplices(delta(1), 0, -2))

    def test_path_longer_than_the_recursion_limit(self):
        # one path of 1100 steps: building the path list must not recurse per step
        got = enumerate_hom_simplices(delta(0), 0, 1100)
        assert len(got) == 1

    def test_every_check_of_a_slot_is_read_on_a_wedge_of_four_spheres(self):
        # S^4 v S^4: one vertex and two 4-cells whose faces all collapse to it.
        # A flip check after a slot's second can reject here only when two
        # singleton values sit at non-adjacent interior points, which needs a
        # cell of dimension >= 4 and n, p >= 3.
        v = CellId(0, "v")
        spheres = [CellId(4, "a"), CellId(4, "b")]
        point = FormalSimplex(collapse_map(3), v)
        wedge = SimplicialSet([v, *spheres], {c: (point,) * 5 for c in spheres})
        for f in islice(iter_hom_simplices(wedge, 3, 3), 1000):
            assert validate_hom_simplex(f)


class TestReindexing:
    def setup_method(self):
        self.space = delta(2)
        self.sample = enumerate_hom_simplices(self.space, 1, 2)[37]  # width 2, height 1
        self.tall = enumerate_hom_simplices(self.space, 2, 2)[41]  # width 2, height 2

    def test_identity(self):
        f = self.sample
        assert hom_reindex(f, identity_map(f.width)) == f
        assert hom_source_reindex(f, identity_map(f.height)) == f

    def test_functorial_in_simplex_direction(self):
        f = self.sample
        theta = MonotoneMap(3, 2, (0, 1, 1, 2))
        eta = MonotoneMap(1, 3, (0, 2))
        two_steps = hom_reindex(hom_reindex(f, theta), eta)
        one_step = hom_reindex(f, compose_monotone(theta, eta))
        assert two_steps == one_step

    def test_functorial_in_source_direction(self):
        f = self.tall
        gamma = MonotoneMap(1, 2, (0, 2))
        rho = MonotoneMap(2, 1, (0, 0, 1))
        two_steps = hom_source_reindex(hom_source_reindex(f, gamma), rho)
        one_step = hom_source_reindex(f, compose_monotone(gamma, rho))
        assert two_steps == one_step

    def test_directions_commute(self):
        f = self.tall
        theta = MonotoneMap(1, 2, (0, 1))
        gamma = MonotoneMap(1, 2, (1, 2))
        a = hom_bireindex(f, theta, gamma)
        b = hom_source_reindex(hom_reindex(f, theta), gamma)
        c = hom_reindex(hom_source_reindex(f, gamma), theta)
        assert a == b == c

    def test_shape_mismatch(self):
        f = self.sample
        with pytest.raises(ValueError):
            hom_bireindex(f, identity_map(3), identity_map(f.height))

    def test_simplicial_identities(self):
        space = delta(1)
        for f in enumerate_hom_simplices(space, 1, 2):
            for j in range(1, 3):
                for i in range(j):
                    assert hom_face(hom_face(f, j), i) == hom_face(hom_face(f, i), j - 1)
            for k in range(2):
                up = hom_degeneracy(f, k)
                assert hom_face(up, k) == f
                assert hom_face(up, k + 1) == f

    def test_degeneracy_splits_along_columns(self):
        # the degeneracy at column k reads each path through the merged
        # path and an ordinal collapse at the crossing level
        space = delta(1)
        for g in enumerate_hom_simplices(space, 1, 1):
            for k in range(2):
                h = hom_degeneracy(g, k)
                for a in all_paths(2, 1):
                    sp = split_path_at_column(a, k)
                    expected = space.apply_map(
                        degeneracy_map(k + sp.crossing, 2), g.value(sp.merged_path())
                    )
                    assert h.value(a) == expected


class TestDegeneracy:
    def test_edge_restriction_shape(self):
        space = delta(2)
        f = enumerate_hom_simplices(space, 1, 1)[0]
        e = edge_restriction(f, 0, 0)
        assert e.degree == 1
        with pytest.raises(ValueError):
            edge_restriction(f, 1, 0)

    def test_degenerate_implies_fully_degenerate_column(self):
        # holds over any target, including irregular ones
        for space in [delta(1), quotient(delta(2), ["0,2"]), collapsed_ball(2)]:
            for p in range(1, 4):
                for f in enumerate_hom_simplices(space, 1, p):
                    if is_degenerate_hom(f):
                        assert any(almost_degenerate_at(f, k) for k in range(p))

    def test_retraction_test_matches_face_then_degeneracy(self):
        # the slow definition the collapse-value test must equal: f is the
        # k-th degeneracy of its own k-th face exactly at the repeats of
        # the collapse that normalize_hom splits off
        all_facets = [frozenset(range(4)) - {i} for i in range(4)]
        targets = [
            delta(1),
            boundary_delta(2),
            quotient(delta(2), ["0,2"]),  # regular but not strongly so
            collapsed_ball(2),  # irregular
            collapsed_ball(3),  # irregular
            lurie_family(4, 3, facets=all_facets)[0],  # irregular
        ]
        for space in targets:
            for n in range(4):
                for p in range(6 - n):
                    for f in enumerate_hom_simplices(space, n, p):
                        slow = {k for k in range(p) if hom_degeneracy(hom_face(f, k), k) == f}
                        assert is_degenerate_hom(f) == bool(slow)
                        assert set(normalize_hom(f)[0].repeat_positions()) == slow

    def test_pruned_nondegenerate_search_matches_the_retraction_filter(self):
        # the slow reference: every simplex, filtered by the retraction test
        cases = 0
        for entry in corpus(seed=3, count=40):
            space = entry.space
            regular = bool(is_regular(space))
            for n in (1, 2):
                seats = [(0, j) for j in range(n + 1)]
                for p in range(5 - n):
                    fast = list(_nondegenerate(space, p, (n,), (), seats, regular))
                    slow = [
                        f.positions
                        for f in iter_hom_simplices(space, n, p)
                        if not is_degenerate_hom(f)
                    ]
                    assert fast == slow, (entry.name, n, p)
                    cases += 1
        assert cases == 280

    def test_normalize_recomposes(self):
        for space in [delta(1), quotient(delta(2), ["0,2"]), collapsed_ball(2)]:
            for p in range(1, 4):
                for f in enumerate_hom_simplices(space, 1, p):
                    eps, core = normalize_hom(f)
                    assert not is_degenerate_hom(core)
                    assert hom_reindex(core, eps) == f
                    assert is_degenerate_hom(f) == (not eps.is_identity)

    def test_normalize_splits_more_degeneracies_than_the_recursion_limit(self):
        (f,) = enumerate_hom_simplices(delta(0), 0, 1100)
        eps, core = normalize_hom(f)
        assert core.width == 0
        assert hom_reindex(core, eps) == f

    def test_retraction_caches_nothing_per_simplex(self):
        space = delta(2)
        own = set(vars(delta(2)))  # what SimplicialSet.__init__ sets
        assert set(vars(space)) == own
        for p in range(5):
            for f in enumerate_hom_simplices(space, 1, p):
                is_degenerate_hom(f)
                normalize_hom(f)
        assert set(vars(space)) == own

    def test_degeneracy_verdicts_never_call_apply_map(self, apply_map_calls):
        for space in [delta(2), collapsed_ball(2)]:
            simplices = [f for p in range(4) for f in enumerate_hom_simplices(space, 1, p)]
            families = hom_general(boundary_delta(1), space, 2)
            for f in simplices:
                is_degenerate_hom(f)
            for family in families:
                is_degenerate_family(family)
            for f in simplices:
                for k in range(f.width):
                    if almost_degenerate_at(f, k):
                        try:
                            lemma4_witness(space, f, k)
                        except RegularityViolation:
                            pass
        # dim_hom writes no staircase, and its regularity check reads each
        # cell's edges off normal values
        assert dim_hom(delta(2), 1) == HomDimension(4, True)
        assert apply_map_calls == []

    def test_degeneracy_verdicts_fill_no_action_entries(self):
        def filled(space):
            return sum(len(row) for row in space._act_rows.values())

        for space in [delta(2), collapsed_ball(2)]:
            simplices = [f for p in range(4) for f in enumerate_hom_simplices(space, 1, p)]
            before = filled(space)
            for f in simplices:
                is_degenerate_hom(f)
            assert filled(space) == before
            families = hom_general(boundary_delta(1), space, 2)
            before = filled(space)
            for family in families:
                is_degenerate_family(family)
            assert filled(space) == before
            for f in simplices:
                for k in range(f.width):
                    almost_degenerate_at(f, k)
            assert filled(space) == before

    def test_witness_reconstruction_over_regular_target(self):
        space = quotient(delta(2), ["0,2"])  # regular but not strongly so
        checked = 0
        for p in range(1, 4):
            for f in enumerate_hom_simplices(space, 1, p):
                for k in range(p):
                    if almost_degenerate_at(f, k):
                        g = lemma4_witness(space, f, k)
                        assert hom_degeneracy(g, k) == f
                        checked += 1
        assert checked > 0

    def test_witness_splits_exactly_at_the_degenerate_columns(self):
        # the witness exists exactly at the columns where f is a degeneracy;
        # a raise is checked against the slow definition, d_k then s_k
        cases = raised = 0
        for entry in corpus(seed=3, count=40):
            space = entry.space
            for n in (0, 1):
                for p in (1, 2, 3):
                    if len(space.simplices(p + n)) * (p + n) > 150:
                        continue
                    for f in enumerate_hom_simplices(space, n, p):
                        mask = _degenerate_columns(f)
                        columns = {k for k in range(p) if mask >> k & 1}
                        for k in range(p):
                            if not almost_degenerate_at(f, k):
                                continue
                            cases += 1
                            try:
                                g = lemma4_witness(space, f, k)
                            except RegularityViolation as exc:
                                raised += 1
                                assert k not in columns
                                assert hom_degeneracy(hom_face(f, k), k) != f
                                assert exc.offender in f.values
                            else:
                                assert k in columns
                                assert hom_degeneracy(g, k) == f
        assert (cases, raised) == (12079, 5237)

    def test_witness_rejects_a_space_other_than_the_target(self):
        # f's positions index f.space; read in another space they name
        # unrelated simplices, or none
        f = enumerate_hom_simplices(delta(1), 1, 1)[0]  # constant at a vertex
        assert almost_degenerate_at(f, 0)
        assert hom_degeneracy(lemma4_witness(f.space, f, 0), 0) == f
        for other in [delta(1), delta(2), boundary_delta(2)]:
            with pytest.raises(ValueError):
                lemma4_witness(other, f, 0)

    def test_witness_requires_degenerate_column(self):
        space = delta(1)
        f = enumerate_hom_simplices(space, 1, 1)[0]  # constant at a vertex
        with pytest.raises(ValueError):
            lemma4_witness(space, f, 5)

    def test_witness_fails_over_irregular_target(self):
        space = collapsed_ball(3)
        raised = 0
        for f in enumerate_hom_simplices(space, 1, 2):
            if is_degenerate_hom(f):
                continue
            cols = [k for k in range(2) if almost_degenerate_at(f, k)]
            if not cols:
                continue
            with pytest.raises(RegularityViolation):
                lemma4_witness(space, f, cols[0])
            raised += 1
        assert raised > 0  # the nondegenerate near-degenerate exhibits exist


def _mask_spaces():
    """corpus(3, 40) and the irregular landmarks."""
    all_facets = [frozenset(range(4)) - {i} for i in range(4)]
    return [e.space for e in corpus(seed=3, count=40)] + [
        collapsed_ball(2),
        lurie_family(4, 3, facets=all_facets)[0],
    ]


class TestStepMasks:
    # each mask verdict against its slow form: collapse values and
    # apply_map edges, read simplex by simplex
    def test_table_entries_match_collapse_values_and_apply_map_edges(self):
        checked = 0
        for space in _mask_spaces():
            for d in range(6):
                repeats, edges = space.step_masks(d)
                assert len(repeats) == len(edges) == len(space.simplices(d))
                for z, x in enumerate(space.simplices(d)):
                    v = x.epi.values
                    assert repeats[z] == sum(1 << s for s in range(d) if v[s] == v[s + 1])
                    slow = [space.apply_map(edge_map(s, 1, d), x).is_degenerate for s in range(d)]
                    assert edges[z] == sum(1 << s for s in range(d) if slow[s])
                    checked += 1
        assert checked == 6302

    def test_column_verdicts_match_their_slow_forms(self):
        columns = edges = 0
        for space in _mask_spaces():
            degenerate_edge = {}  # (simplex, step) -> its apply_map verdict
            for n in (0, 1, 2):
                for p in range(1, 4):
                    if len(space.simplices(p + n)) * (p + n) > 150:
                        continue
                    steps = list(combinations(range(p + n), p))
                    words = [path.word for path in all_paths(p, n)]
                    for f in enumerate_hom_simplices(space, n, p):
                        collapses = [x.epi.values for x in f.values]
                        slow = sum(
                            1 << k
                            for k in range(p)
                            if all(v[h[k]] == v[h[k] + 1] for v, h in zip(collapses, steps))
                        )
                        assert _degenerate_columns(f) == slow
                        columns += 1
                        for k in range(p):
                            verdicts = []
                            for j in range(n + 1):
                                # the path that turns at the grid point (k, j)
                                word = "H" * k + "V" * j + "H" * (p - k) + "V" * (n - j)
                                x = f.values[words.index(word)]
                                if (x, k + j) not in degenerate_edge:
                                    edge = space.apply_map(edge_map(k + j, 1, p + n), x)
                                    degenerate_edge[x, k + j] = edge.is_degenerate
                                verdicts.append(degenerate_edge[x, k + j])
                            assert almost_degenerate_at(f, k) == all(verdicts)
                            edges += 1
        assert (columns, edges) == (57703, 139750)


class TestDimension:
    def test_frozen_small_dimensions(self):
        assert dim_hom(delta(1), 1) == HomDimension(2, True)
        assert dim_hom(delta(1), 2) == HomDimension(3, True)
        assert dim_hom(delta(2), 1) == HomDimension(4, True)
        assert dim_hom(delta(2), 2) == HomDimension(6, True)

    def test_point_and_empty_targets(self):
        assert dim_hom(delta(0), 2) == HomDimension(0, True)
        assert dim_hom(SimplicialSet([], {}), 1) == HomDimension(-1, True)

    def test_irregular_needs_cap(self):
        with pytest.raises(ValueError):
            dim_hom(collapsed_ball(3), 1)

    def test_standard_simplex_with_more_cells_than_the_recursion_limit(self):
        # delta(9) has 1023 cells: the top-cell search must not recurse per cell
        assert dim_hom(delta(9), 0) == HomDimension(9, True)

    def test_the_staircase_in_any_top_cell_of_a_regular_space_is_nondegenerate(self):
        regular = [e.space for e in corpus(seed=3, count=200) if is_regular(e.space)]
        no_simplex = []
        witnesses = 0
        for space in regular:
            top = space.cells_of_dim(space.dim)
            for n in (0, 1, 2):
                source = delta(n)
                for c in top:
                    assert is_degenerate_family(_staircase_family(source, space, c)) is False
                    witnesses += 1
            if not any(is_isomorphic(subcomplex(space, [c]), delta(c.dim)) for c in top):
                no_simplex.append(space)
        assert witnesses == 1359
        # where no top cell spans a simplex (triangle/long-edge is the
        # quotient of D^2 by its edge 0,2), the pruned search, the route
        # dim_hom took there before, still finds the ceiling
        assert len(no_simplex) == 4
        for space in no_simplex:
            for n in (0, 1, 2):
                p = (n + 1) * space.dim
                seats = [(0, j) for j in range(n + 1)]
                found = next(_nondegenerate(space, p, (n,), (), seats, True), None)
                assert found is not None, (space, n)

    def test_irregular_cap_gives_lower_bound(self):
        got = dim_hom(collapsed_ball(3), 1, degree_cap=4)
        assert got == HomDimension(4, False)
        assert str(got) == ">= 4"

    def test_dimension_formatting(self):
        assert str(HomDimension(6, True)) == "6"
        assert str(HomDimension(8, False)) == ">= 8"

    def test_matches_bruteforce_on_irregular_target(self):
        # the collapsed disc and the irregular sets of the corpus: the
        # capped scan agrees with an exhaustive scan of the low degrees
        # (n = 2 at cap 3 is left out: lurie-q4 alone takes seconds there)
        with pytest.raises(ValueError):
            dim_hom(collapsed_ball(2), 1)
        irregular = [e.space for e in corpus(seed=3, count=40) if not is_regular(e.space)]
        assert len(irregular) == 6
        cases = [(collapsed_ball(2), 1, 3)]
        cases += [(space, n, cap) for space in irregular for n, cap in ((1, 2), (1, 3), (2, 2))]
        for space, n, cap in cases:
            best = -1
            for p in range(cap + 1):
                for f in enumerate_hom_simplices(space, n, p):
                    if p == 0 or not is_degenerate_hom(f):
                        best = max(best, p)
            assert dim_hom(space, n, degree_cap=cap) == HomDimension(best, False), (space, n, cap)
            got = dim_hom_general(delta(n), space, degree_cap=cap)
            assert got == HomDimension(best, False), (space, n, cap)

    def test_degree_0_always_answers_under_a_zero_cap(self):
        # the constant simplices and families are nondegenerate in degree 0
        irregular = [e.space for e in corpus(seed=3, count=40) if not is_regular(e.space)]
        sources = [
            SimplicialSet([], {}),
            delta(0),
            delta(1),
            disjoint_sum(delta(0), delta(0)),
        ]
        for space in irregular:
            for n in (0, 1, 2):
                assert dim_hom(space, n, degree_cap=0) == HomDimension(0, False), (space, n)
            for source in sources:
                got = dim_hom_general(source, space, degree_cap=0)
                assert got == HomDimension(0, False), (source, space)

    def test_a_regular_answer_lists_no_simplex(self):
        # the bound is the answer; the staircase certifying it has 245,157
        # paths here and is not written
        space = delta(2)
        assert dim_hom(space, 7) == HomDimension(16, True)
        assert space._simplex_cache == {} and space._act_rows == {}


class TestAssembledComplex:
    def test_interval_self_maps_form_triangle(self):
        complex_, legend = hom_complex(delta(1), 1)
        assert is_isomorphic(complex_, delta(2))
        for cell, f in legend.items():
            assert cell.dim == f.width
            assert not is_degenerate_hom(f) or f.width == 0

    def test_faces_agree_with_engine(self):
        # every face entry, built on positions, against the slow route: the
        # face reindexed as a HomSimplex and normalised.  The regular
        # landmarks with (n + 1) * dim X <= 4 have no degenerate face entry;
        # the collapsed 2-ball and the long-edge triangle have some
        cases = [
            (entry.name, entry.space, n, None)
            for entry in corpus(0)
            if is_regular(entry.space)
            for n in (1, 2)
            if (n + 1) * entry.space.dim <= 4
        ]
        landmarks = {entry.name: entry.space for entry in corpus(0)}
        cases += [
            ("collapsed_ball(2)", collapsed_ball(2), 1, 2),
            ("triangle/long-edge", landmarks["triangle/long-edge"], 1, 3),
        ]
        assert len(cases) >= 20
        degenerate = {}
        for name, space, n, cap in cases:
            complex_, legend = hom_complex(space, n, degree_cap=cap)
            for cell in complex_.cells:
                f = legend[cell]
                assert (cell.dim, f.height) == (f.width, n)
                for i, entry in enumerate(complex_.faces.get(cell, ())):
                    eps, core = normalize_hom(hom_face(f, i))
                    assert entry.epi == eps and legend[entry.generator] == core, (
                        name, n, cell.name, i,
                    )
                    degenerate[name] = degenerate.get(name, 0) + entry.is_degenerate
        assert degenerate["collapsed_ball(2)"] and degenerate["triangle/long-edge"]

    def test_a_cap_on_a_regular_target_is_ignored(self):
        # as in dim_hom: over a regular target the presentation is complete
        space = delta(1)
        whole, legend = hom_complex(space, 1)
        capped, capped_legend = hom_complex(space, 1, degree_cap=1)
        assert capped.dim == whole.dim == 2
        assert capped.cells == whole.cells and capped.faces == whole.faces
        assert capped_legend == legend

    def test_irregular_needs_cap(self):
        with pytest.raises(ValueError):
            hom_complex(collapsed_ball(2), 1)
        skeleton, legend = hom_complex(collapsed_ball(2), 1, degree_cap=2)
        assert skeleton.dim <= 2 and len(legend) == len(skeleton.cells)


def _two_disc_sphere(q):
    """S^q as Delta^q with a second q-cell on the top cell's face entries."""
    full = delta(q)
    top, twin = full.cells[-1], CellId(q, "twin")
    return SimplicialSet(full.cells + (twin,), {**full.faces, twin: full.faces[top]})


def _family_sources():
    """Sources with their top degree: 2 for each but the boundary of D^3
    and the spheres.  In the spheres two vertices are collapsed, so the
    equation of the resulting loop sits on cells that both maximal cells'
    closures hold."""
    pt = delta(0)
    return [
        (boundary_delta(2), 2),
        (horn(2, 1), 2),
        (delta(1), 2),
        (disjoint_sum(pt, pt), 2),
        (disjoint_sum(pt, delta(1)), 2),
        (quotient(delta(2), ["0,2"]), 2),
        (boundary_delta(3), 1),
        (collapsed_ball(1), 2),  # a loop: both faces of its edge are one vertex
        (collapsed_ball(2), 2),
        (product(delta(1), delta(1)), 2),
        (SimplicialSet([], {}), 2),
        (quotient(delta(2), ["0,1", "1,2"]), 2),
        (quotient(_two_disc_sphere(2), ["0", "1"]), 1),
        (quotient(_two_disc_sphere(3), ["0", "1"]), 1),
    ]


def _family_targets():
    return [delta(1), delta(2), quotient(delta(2), ["0,2"])]


def _two_pass_layout(source, cells):
    """The former ``_family_layout``, kept as the reference: one pass over
    each maximal cell's closure routes every cell, and a second pass over
    ``source.cells`` builds the sides, each composed as gamma o d_i and
    eta o epi."""
    maximal = [w for w in _maximal_cells(source) if w in cells]
    route = {}
    for k, w in enumerate(maximal):
        route[w] = (k, identity_map(w.dim))
        for u in sorted(_face_closure(source, [w]), key=lambda u: (-u.dim, u)):
            owner, gamma = route[u]
            for i, fs in enumerate(source.faces[u]):
                if fs.generator not in route:
                    step = compose_monotone(face_map(i, u.dim), _first_section(fs.epi))
                    route[fs.generator] = (owner, compose_monotone(gamma, step))
    sides = []
    for u in source.cells:
        if u in route:
            k, gamma = route[u]
            for i, fs in enumerate(source.faces[u]):
                kk, eta = route[fs.generator]
                here = compose_monotone(gamma, face_map(i, u.dim))
                there = compose_monotone(eta, fs.epi)
                if (k, here) != (kk, there):
                    sides.append((k, here, kk, there))
    seats = {}
    for k, w in enumerate(maximal):
        for j in range(w.dim + 1):
            seats.setdefault(source.normal_values(w, (j,))[0], (k, j))
    return [w.dim for w in maximal], sides, list(seats.values()), route


class TestGeneralSource:
    def test_point_source_recovers_target(self):
        point = delta(0)
        space = delta(1)
        for p in range(3):
            fams = hom_general(point, space, p)
            assert len(fams) == len(space.simplices(p))

    def test_interval_source_matches_direct_engine(self):
        source = delta(1)
        space = delta(1)
        for p in range(3):
            fams = hom_general(source, space, p)
            direct = enumerate_hom_simplices(space, 1, p)
            assert len(fams) == len(direct)
            tops = Counter(f.value(source.cell("0,1")) for f in fams)
            assert tops == Counter(direct)

    def test_family_degeneracy_matches_componentwise(self):
        point = delta(0)
        space = quotient(delta(2), ["0,2"])
        for p in range(1, 3):
            for fam in hom_general(point, space, p):
                only = fam.values[0]
                assert is_degenerate_family(fam) == is_degenerate_hom(only)

    def test_additive_bound(self):
        assert theorem1bis_bound(delta(1), delta(1)) == 4
        assert theorem1bis_bound(delta(0), delta(2)) == 2

    def test_general_dimension(self):
        assert dim_hom_general(delta(1), delta(1)) == HomDimension(2, True)
        assert dim_hom_general(delta(0), delta(2)) == HomDimension(2, True)
        got = dim_hom_general(delta(0), collapsed_ball(2), degree_cap=2)
        assert not got.exact and got.value == 2

    def test_hom_leaves_no_state_on_the_target(self, apply_map_calls):
        target = delta(1)
        dim_hom_general(boundary_delta(2), target)
        assert apply_map_calls == []
        assert set(vars(target)) == {
            "_cells",
            "_by_name",
            "_faces",
            "_simplex_cache",
            "_face_tables",
            "_step_masks",
            "_cell_offsets",
            "_act_rows",
        }

    def test_families_match_the_face_equations_and_the_brute_force_count(self):
        for source, top in _family_sources():
            for target in _family_targets():
                for p in range(top + 1):
                    fams = hom_general(source, target, p)
                    ident = identity_map(p)
                    for fam in fams:
                        for u in source.cells:
                            for i, entry in enumerate(source.faces[u]):
                                here = hom_bireindex(fam.value(u), ident, face_map(i, u.dim))
                                there = hom_bireindex(
                                    fam.value(entry.generator), ident, entry.epi
                                )
                                assert here == there, (source, target, p, u, i)
                    assert len({fam.values for fam in fams}) == len(fams)
                    count = brute_force_hom_count(source, target, p)
                    assert len(fams) == count, (source, target, p)

    def test_families_come_in_the_order_of_their_maximal_values(self):
        # the documented order: lexicographic in the positions of the
        # maximal cells' values in enumerate_hom_simplices
        for source, top in _family_sources():
            maximal = _maximal_cells(source)
            for target in _family_targets():
                for p in range(top + 1):
                    index = {
                        d: {f: z for z, f in enumerate(enumerate_hom_simplices(target, d, p))}
                        for d in {w.dim for w in maximal}
                    }
                    keys = [
                        tuple(index[w.dim][fam.value(w)] for w in maximal)
                        for fam in iter_hom_families(source, target, p)
                    ]
                    assert all(a < b for a, b in zip(keys, keys[1:])), (source, target, p)

    def test_boundary_of_the_triangle_into_two_dimensional_targets(self):
        # the three vertex pools alone multiply out to millions of triples
        for target in (delta(2), quotient(delta(2), ["0,2"])):
            assert dim_hom_general(boundary_delta(2), target) == HomDimension(6, True)

    def test_one_pass_layout_matches_the_two_pass_reference(self):
        # the sides come in another order, which only orders each slot's checks
        q3 = quotient(delta(3), ["0,3"])
        prodq = product(quotient(delta(2), ["0,2"]), delta(1))
        sources = [e.space for e in corpus(seed=5, count=70) + corpus(seed=3, count=60)]
        sources += [source for source, _ in _family_sources()]
        sources += [q3, prodq, product(q3, delta(1))]
        compared = 0
        for source in sources:
            for cells in [set(source.cells)] + _pieces(source):
                dims, sides, seats, route = _family_layout(source, cells)
                ref_dims, ref_sides, ref_seats, ref_route = _two_pass_layout(source, cells)
                assert (dims, seats, route) == (ref_dims, ref_seats, ref_route), source
                assert Counter(sides) == Counter(ref_sides), source
                compared += 1
        assert compared == 326

    def test_source_with_more_cells_than_the_recursion_limit(self):
        # delta(10) has 2047 cells, all forced by its one maximal cell
        source = delta(10)
        assert len(list(iter_hom_families(source, delta(0), 0))) == 1
        # one vertex of Hom(D^10, D^1) per monotone map [10] -> [1]
        assert len(hom_general(source, delta(1), 0)) == 12


class TestEntryPointDegreeChecks:
    def test_every_entry_point_rejects_a_negative_degree_by_name(self):
        irregular = collapsed_ball(2)
        with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
            dim_hom(delta(1), -1)
        with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
            dim_hom(irregular, -1, degree_cap=2)
        with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
            hom_complex(delta(1), -1)
        with pytest.raises(ValueError, match="^p must be non-negative, got -1$"):
            hom_general(delta(1), delta(1), -1)
        with pytest.raises(ValueError, match="^p must be non-negative, got -1$"):
            next(iter_hom_families(delta(0), irregular, -1))
        with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
            next(iter_hom_simplices(delta(1), -1, 0))
        ball = quotient(delta(3), [c.name for c in boundary_delta(3).cells])
        cap_message = "^degree_cap must be non-negative, got -3$"
        with pytest.raises(ValueError, match=cap_message):
            dim_hom_general(disjoint_sum(delta(1), delta(0)), ball, degree_cap=-3)
        with pytest.raises(ValueError, match=cap_message):
            dim_hom_general(delta(1), SimplicialSet([], {}), degree_cap=-3)
        with pytest.raises(ValueError, match=cap_message):
            dim_hom(ball, 1, degree_cap=-3)
        with pytest.raises(ValueError, match=cap_message):
            hom_complex(ball, 1, degree_cap=-3)

    def test_additive_bound_covers_empty_sources_and_targets(self):
        void = SimplicialSet([], {})
        for source, target in [
            (delta(1), void),
            (boundary_delta(2), void),
            (void, void),
            (void, delta(2)),
        ]:
            bound = theorem1bis_bound(source, target)
            assert bound >= dim_hom_general(source, target).value
            assert bound >= -1
        assert theorem1bis_bound(delta(1), void) == -1
        assert theorem1bis_bound(void, delta(2)) == 0


def _chain_nerve(size):
    names = "abcdefgh"[:size]
    return nerve_poset(names, [(x, y) for i, x in enumerate(names) for y in names[i + 1:]])


class TestStandardSimplexSource:
    def test_a_simplex_source_answers_as_the_standard_simplex_however_written(self):
        written = [
            delta(3),
            subcomplex(delta(4), ["0,1,2,3"]),
            _chain_nerve(4),
        ]
        targets = [
            (delta(2), None),
            (quotient(delta(2), ["0,2"]), None),
            (collapsed_ball(2), 3),
        ]
        # over an irregular target a simplex source takes the capped scan
        irregular = [e.space for e in corpus(seed=3, count=40) if not is_regular(e.space)]
        targets += [(space, cap) for space in irregular for cap in (2, 3)]
        for source in written:
            assert is_isomorphic(source, delta(3))
            for target, cap in targets:
                got = dim_hom_general(source, target, degree_cap=cap)
                assert got == dim_hom(target, 3, degree_cap=cap), (source, target)
        assert dim_hom_general(written[1], delta(2)) == HomDimension(8, True)
        assert dim_hom_general(written[1], collapsed_ball(2), 3) == HomDimension(3, False)

    def test_a_subcomplex_presented_simplex_is_fast(self):
        # the family scan took minutes here; the ordered vertices answer at once
        started = time.monotonic()
        got = dim_hom_general(subcomplex(delta(3), ["0,1,2,3"]), delta(2))
        assert got == HomDimension(8, True)
        assert time.monotonic() - started < 5

    def test_a_single_maximal_cell_that_is_no_simplex_keeps_the_family_route(self):
        source = quotient(delta(2), ["0,2"])
        assert len(_maximal_cells(source)) == 1
        # its vertices * and 1 form a directed cycle, so no order applies
        assert _has_vertex_cycle(source, source.cells)
        target = delta(1)
        expected = -1
        for p in range(theorem1bis_bound(source, target), -1, -1):
            if any(not is_degenerate_family(f) for f in iter_hom_families(source, target, p)):
                expected = p
                break
        assert dim_hom_general(source, target) == HomDimension(expected, True)
        # the standard 2-simplex would answer differently
        assert expected == 1 and dim_hom(target, 2).value == 3


def _slow_top_degree(source, target, start):
    """The first degree from ``start`` down with a nondegenerate family."""
    for p in range(start, -1, -1):
        if any(not is_degenerate_family(f) for f in iter_hom_families(source, target, p)):
            return p
    return -1


def _piecewise(source, target, cap=None):
    """The former route for a disconnected source, kept as the reference:
    each piece built as its own subcomplex and answered apart, the answers
    added and, under a cap, cut to it."""
    parts = [dim_hom_general(subcomplex(source, cells), target, cap) for cells in _pieces(source)]
    total = sum(part.value for part in parts)
    if all(part.exact for part in parts):
        return HomDimension(total, True)
    return HomDimension(min(total, cap), False)


def _chain(k):
    """The path v0 -> v1 -> ... -> vk of k 1-cells, and nothing else."""
    vertices = [CellId(0, "v%d" % i) for i in range(k + 1)]
    edges = [CellId(1, "e%d" % i) for i in range(k)]
    faces = {v: () for v in vertices}
    for i, e in enumerate(edges):
        ends = (vertices[i + 1], vertices[i])  # d_0 e is the arrow's end, d_1 e its start
        faces[e] = tuple(FormalSimplex(identity_map(0), v) for v in ends)
    return SimplicialSet(vertices + edges, faces)


class TestVertexBound:
    def test_a_disconnected_source_answers_as_the_sum_of_its_pieces(self, monkeypatch):
        # the family search over the whole source took minutes and more
        source, target = disjoint_sum(delta(3), delta(0)), delta(2)
        built = []
        original = SimplicialSet.__init__

        def counted(self, cells, faces):
            built.append(cells)
            original(self, cells, faces)

        monkeypatch.setattr(SimplicialSet, "__init__", counted)
        started = time.monotonic()
        got = dim_hom_general(source, target)
        assert got == HomDimension(8 + 2, True)
        assert time.monotonic() - started < 5
        # the pieces are read in place: no subcomplex is built for them
        assert built == []

    def test_disconnected_sources_answer_as_their_pieces_built_apart(self):
        q2 = quotient(delta(2), ["0,2"])
        q3 = quotient(delta(3), ["0,3"])
        sources = {}
        for entry in corpus(seed=5, count=70) + corpus(seed=3, count=60):
            if len(_pieces(entry.space)) > 1:
                sources.setdefault(entry.name, entry.space)
        assert len(sources) == 28
        # the corpus has no piece with a directed vertex cycle; these do
        sources["q3+pt"] = disjoint_sum(q3, delta(0))
        sources["q2+delta1"] = disjoint_sum(q2, delta(1))
        sources["q3+q2"] = disjoint_sum(q3, q2)
        targets = [(x, None) for x in (delta(1), delta(2), q2, horn(2, 1), boundary_delta(2))]
        irregular = [e.space for e in corpus(seed=3, count=40) if not is_regular(e.space)]
        targets += [(space, cap) for space in irregular for cap in (2, 3)]
        for name, source in sources.items():
            for target, cap in targets:
                got = dim_hom_general(source, target, degree_cap=cap)
                assert got == _piecewise(source, target, cap), (name, target, cap)

    def test_a_long_chain_answers_at_once(self):
        # the vertex-cycle test closed the arrows by a fixpoint over every
        # pair, about 1.4 s here
        source = _chain(60)
        started = time.monotonic()
        assert dim_hom_general(source, delta(2)) == HomDimension(122, True)
        assert time.monotonic() - started < 0.1

    def test_a_disconnected_source_under_a_cap_matches_the_slow_scan(self):
        source = disjoint_sum(delta(1), delta(0))
        for cap in (2, 3):
            expected = _slow_top_degree(source, collapsed_ball(2), cap)
            got = dim_hom_general(source, collapsed_ball(2), degree_cap=cap)
            assert got == HomDimension(expected, False), cap

    def test_connected_sources_over_irregular_targets_match_the_slow_scan(self):
        # the family filter reads the maximal values alone; the slow scan
        # tests every component of every family
        sources = [
            boundary_delta(2),
            horn(2, 1),
            quotient(delta(2), ["0,2"]),
            quotient(delta(1), ["0", "1"]),
        ]
        for target in (collapsed_ball(2), quotient(delta(2), ["0,1"])):
            assert not is_regular(target)
            for source in sources:
                for cap in (2, 3):
                    expected = _slow_top_degree(source, target, cap)
                    got = dim_hom_general(source, target, degree_cap=cap)
                    assert got == HomDimension(expected, False), (source, target, cap)

    def test_scans_over_cyclic_sources_answer_within_the_wall_bound(self):
        # each of these scans took from 2 s to over a minute while every
        # slot's whole table was listed before the first family was tested
        q2 = quotient(delta(2), ["0,2"])
        q3 = quotient(delta(3), ["0,3"])
        prodq = product(q2, delta(1))
        lurie_q4 = {entry.name: entry.space for entry in corpus(0)}["lurie-q4"]
        cases = [
            # q3 has one strongly connected vertex class, yet its answer
            # over q2 exceeds that count times dim q2 = 2
            (q3, q2, None, HomDimension(4, True)),
            (q3, delta(2), None, HomDimension(2, True)),
            (prodq, q2, None, HomDimension(4, True)),
            (prodq, delta(2), None, HomDimension(4, True)),
            # two cyclic pieces, each scanned on its own layout
            (disjoint_sum(q3, prodq), delta(2), None, HomDimension(2 + 4, True)),
            (lurie_q4, collapsed_ball(3), 2, HomDimension(2, False)),
        ]
        for source, target, cap, expected in cases:
            started = time.monotonic()
            assert dim_hom_general(source, target, degree_cap=cap) == expected
            assert time.monotonic() - started < 5, (source, target)

    def test_a_directed_vertex_cycle_stays_below_the_vertex_bound(self):
        # the vertices * and 1 of D^2/(0,2) form a directed cycle
        source = quotient(delta(2), ["0,2"])
        target = delta(2)
        assert len(source.cells_of_dim(0)) * target.dim == 4
        # the additive bound (18 here) would list 681,835 simplices of
        # Hom(D^2, D^2) at its top degree alone, so the slow scan starts
        # at the product bound over the one maximal cell, (2 + 1) * 2
        (top,) = _maximal_cells(source)
        expected = _slow_top_degree(source, target, (top.dim + 1) * target.dim)
        assert expected == 2
        assert dim_hom_general(source, target) == HomDimension(expected, True)


def _nondegenerate_counts(source, target, top):
    """N_0, ..., N_top, the nondegenerate simplices of Hom(U, X) by degree,
    read off the oracle's counts alone.  By Eilenberg-Zilber each
    p-simplex is s^* x for one surjection s : [p] -> [k], of which there
    are C(p, k), and one nondegenerate k-simplex x, so
    |Hom_p| = sum_k C(p, k) N_k, and binomial inversion gives
    N_k = sum_{j <= k} (-1)^(k - j) C(k, j) |Hom_j|."""
    counts = [brute_force_hom_count(source, target, j) for j in range(top + 1)]
    return [
        sum((-1) ** (k - j) * math.comb(k, j) * counts[j] for j in range(k + 1))
        for k in range(top + 1)
    ]


class TestInvertedCounts:
    """Dimensions checked by a route that shares no rule with the engine:
    the oracle's counts, inverted into nondegenerate counts."""

    def test_an_exact_answer_is_the_top_degree_with_nondegenerate_simplices(self):
        q3 = quotient(delta(3), ["0,3"])
        cases = [
            (boundary_delta(2), 3, [4, 6, 4, 1, 0]),
            (horn(2, 1), 3, None),
            (q3, 1, [2, 1, 0]),
            (quotient(delta(1), ["0", "1"]), 1, None),
            (disjoint_sum(delta(1), delta(0)), 3, [6, 12, 10, 3, 0]),
            (disjoint_sum(q3, delta(0)), 2, [4, 5, 2, 0]),
        ]
        for source, answer, expected in cases:
            assert dim_hom_general(source, delta(1)) == HomDimension(answer, True), source
            counts = _nondegenerate_counts(source, delta(1), answer + 1)
            assert counts[answer] > 0 and counts[answer + 1] == 0, (source, counts)
            assert expected is None or counts == expected, (source, counts)

    def test_a_capped_answer_is_the_top_degree_below_the_cap(self):
        ball = collapsed_ball(2)
        cases = [
            (disjoint_sum(delta(0), delta(0)), 2, [1, 0, 3]),
            (delta(1), 3, [1, 3, 9, 7]),
        ]
        for source, cap, expected in cases:
            counts = _nondegenerate_counts(source, ball, cap)
            assert counts == expected, source
            best = max(k for k in range(cap + 1) if counts[k] > 0)
            assert dim_hom_general(source, ball, degree_cap=cap) == HomDimension(best, False)

    def test_the_assembled_complex_has_the_inverted_counts_as_cells(self):
        skeleton, _ = hom_complex(delta(1), 1)
        counts = _nondegenerate_counts(delta(1), delta(1), 3)
        assert counts == [3, 3, 1, 0]
        assert [len(skeleton.cells_of_dim(k)) for k in range(4)] == counts


def _topological_ranks(source):
    """A rank for each vertex of U along its arrows d_1 e -> d_0 e, by
    repeatedly taking the vertices that no arrow from a remaining vertex
    enters."""
    arrows = set()
    for e in source.cells_of_dim(1):
        d0, d1 = source.faces[e]
        if d0.generator != d1.generator:
            arrows.add((d1.generator, d0.generator))
    rest, ranks = list(source.cells_of_dim(0)), {}
    while rest:
        free = [v for v in rest if not any(b == v and a in rest for a, b in arrows)]
        assert free, "the vertex digraph has a directed cycle"
        for v in free:
            ranks[v] = len(ranks)
        rest = [v for v in rest if v not in ranks]
    return ranks


def _staircase_family(source, space, top=None):
    """The staircase of degree |U_0| * dim X pulled back along the ranks of
    :func:`_topological_ranks`, written into the top cell ``top`` of X, by
    default the first."""
    ranks = _topological_ranks(source)
    if top is None:
        top = space.cells_of_dim(space.dim)[0]
    table = staircase_table(len(ranks) - 1, space.dim)
    p = len(ranks) * space.dim
    values = []
    for u in source.cells:
        levels = [ranks[source.normal_values(u, (j,))[0]] for j in range(u.dim + 1)]

        def chain(path, levels=levels):
            return tuple(table[i][levels[j]] for i, j in path.points())

        values.append(_written_simplex(space, top, p, u.dim, chain))
    return HomFamily(source, space, p, source.cells, tuple(values))


class TestOrderedVertices:
    def test_the_pulled_back_staircase_certifies_the_vertex_bound(self):
        # the lower half of the rule, built and checked without the search
        q2 = quotient(delta(2), ["0,2"])
        checked = 0
        for entry in corpus(seed=5, count=70):
            source = entry.space
            if _has_vertex_cycle(source, source.cells):
                continue
            for space in (delta(2), q2):
                family = _staircase_family(source, space)
                for u in source.cells:
                    for i, fs in enumerate(source.faces[u]):
                        here = hom_source_reindex(family.value(u), face_map(i, u.dim))
                        there = hom_source_reindex(family.value(fs.generator), fs.epi)
                        assert here == there, (entry.name, u, i)
                assert is_degenerate_family(family) is False, (entry.name, space)
                assert family.width == len(source.cells_of_dim(0)) * space.dim
                checked += 1
        assert checked == 132

    def test_vertex_cycles_on_named_sources(self):
        q2 = quotient(delta(2), ["0,2"])
        q3 = quotient(delta(3), ["0,3"])
        circle = quotient(delta(1), ["0", "1"])
        for cyclic in (q2, q3, product(q2, delta(1)), product(q3, delta(1))):
            assert _has_vertex_cycle(cyclic, cyclic.cells), cyclic
        landmarks = {entry.name: entry.space for entry in corpus(0)}
        names = ["nerve-chain", "nerve-vee", "nerve-diamond", "nerve-fence"]
        names += ["boundary2", "boundary3", "square", "prism"]
        # the circle's one 1-cell is a loop, which adds no arrow
        for acyclic in [circle, product(circle, circle)] + [landmarks[n] for n in names]:
            assert not _has_vertex_cycle(acyclic, acyclic.cells), acyclic

    def test_acyclic_sources_answer_the_vertex_bound_without_a_search(self):
        # each of these scanned for 0.4 s to over 30 s before
        q2 = quotient(delta(2), ["0,2"])
        landmarks = {entry.name: entry.space for entry in corpus(seed=5, count=70)}
        cases = [
            ("nerve-fence", delta(2), 8),
            ("nerve-diamond", delta(2), 8),
            ("square", landmarks["square"], 8),
            ("rnd18:poset", q2, 10),
            ("rnd18:poset", delta(2), 10),
            ("prism", delta(2), 12),
            ("rnd0:product", delta(2), 18),
        ]
        for name, target, expected in cases:
            started = time.monotonic()
            assert dim_hom_general(landmarks[name], target) == HomDimension(expected, True)
            assert time.monotonic() - started < 1, (name, target)
