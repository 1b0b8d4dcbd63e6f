"""Simplicial sets: normal forms, constructors, the action of ordinal maps."""

import ast
import math
import random
from itertools import combinations, combinations_with_replacement, product as tuples
from pathlib import Path

import pytest

import simphom.hom
import simphom.regularity
import simphom.simpset
from simphom.delta import (
    MonotoneMap,
    collapse_map,
    compose_monotone,
    degeneracy_map,
    edge_map,
    epi_mono_factor,
    face_map,
    identity_map,
    surjection_from_repeats,
)
from simphom.exhibits import corpus
from simphom.hom import _reindex_plan
from simphom.oracle import count_monotone_lattice_maps
from simphom.simpset import (
    _CHUNK,
    _backtrack,
    CellId,
    FormalSimplex,
    SimplicialSet,
    boundary_delta,
    cell_simplex,
    delta,
    disjoint_sum,
    from_json_dict,
    horn,
    is_isomorphic,
    nerve_poset,
    product,
    quotient,
    subcomplex,
    to_json_dict,
    transitive_closure,
    union,
)


def test_only_simpset_touches_private_attributes_of_other_objects():
    # a SimplicialSet's state belongs to simpset: no other module may read or
    # write an underscore attribute of anything but its own ``self``
    offences = []
    for path in sorted(Path(simphom.simpset.__file__).parent.glob("*.py")):
        if path.name == "simpset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                offences.append("%s:%d %s" % (path.name, node.lineno, node.attr))
    assert not offences, offences


def test_hom_acts_on_simplices_only_in_its_slow_flip_check():
    # the hom engine reads target simplices by position; the one value-level
    # route left is the independent flip check of validate_hom_simplex.  The
    # regularity predicates read collapse values and normal_values only.
    offences = []
    for module, allowed_function in [
        (simphom.hom, "validate_hom_simplex"),
        (simphom.regularity, None),
    ]:
        path = Path(module.__file__)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == allowed_function:
                allowed.update(map(id, ast.walk(node)))
        assert allowed or allowed_function is None, allowed_function
        offences += [
            "%s:%d %s" % (path.name, node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("apply_map", "face", "degeneracy")
            and id(node) not in allowed
        ]
    assert not offences, offences


class TestNormalForms:
    def test_cell_counts(self):
        assert len(delta(0).cells) == 1
        assert len(delta(1).cells) == 3
        assert len(delta(2).cells) == 7
        assert len(delta(3).cells) == 15

    def test_token_round_trip(self):
        top = delta(3).cell("0,1,2,3")
        x = cell_simplex(top)
        assert x.token() == "0,1,2,3"
        y = FormalSimplex(surjection_from_repeats(5, (0, 3)), top)
        assert y.token() == "s3s0:0,1,2,3"
        assert y.degree == 5 and y.is_degenerate

    def test_normal_form_validation(self):
        top = delta(1).cell("0,1")
        with pytest.raises(ValueError):
            FormalSimplex(face_map(0, 2), top)  # not surjective
        with pytest.raises(ValueError):
            FormalSimplex(collapse_map(2), top)  # wrong target dimension

    def test_simplex_counts_match_lattice_model(self):
        # degree-p simplices of the standard q-simplex = monotone [p] -> [q]
        for q in range(4):
            space = delta(q)
            for p in range(5):
                assert len(space.simplices(p)) == count_monotone_lattice_maps(p, 0, q)

    def test_simplices_order_is_canonical(self):
        sims = delta(1).simplices(2)
        assert [s.token() for s in sims] == ["s1s0:0", "s1s0:1", "s0:0,1", "s1:0,1"]

    def test_streamed_simplices_keep_the_canonical_order_on_any_cells(self):
        space = quotient(delta(2), ["0,2"])
        edges = set(space.cells_of_dim(1))
        for degree in range(5):
            every = space.simplices(degree)
            assert tuple(space.iter_simplices(degree)) == every
            assert tuple(space.iter_simplices(degree, edges)) == tuple(
                x for x in every if x.generator in edges
            )
        assert 5 not in vars(space)["_simplex_cache"]
        assert next(space.iter_simplices(5, edges)).generator.dim == 1
        assert 5 not in vars(space)["_simplex_cache"]

    def test_degenerate_flag(self):
        e = cell_simplex(delta(1).cell("0,1"))
        assert not e.is_degenerate
        assert delta(1).degeneracy(e, 0).is_degenerate


class TestAction:
    def test_face_of_standard_simplex(self):
        space = delta(2)
        top = cell_simplex(space.cell("0,1,2"))
        assert space.face(top, 0).generator.name == "1,2"
        assert space.face(top, 1).generator.name == "0,2"
        assert space.face(top, 2).generator.name == "0,1"

    def test_degeneracy_then_face_cancels(self):
        space = delta(2)
        top = cell_simplex(space.cell("0,1,2"))
        for k in range(3):
            up = space.degeneracy(top, k)
            assert space.face(up, k) == top
            assert space.face(up, k + 1) == top

    def test_action_is_functorial(self):
        space = delta(2)
        top = cell_simplex(space.cell("0,1,2"))
        f = MonotoneMap(3, 2, (0, 0, 1, 2))
        g = MonotoneMap(2, 3, (0, 2, 3))
        both = space.apply_map(compose_monotone(f, g), top)
        stepwise = space.apply_map(g, space.apply_map(f, top))
        assert both == stepwise

    def test_apply_map_matches_the_epi_mono_reference_and_is_functorial(self):
        # every simplex of degree <= 3 under every monotone map [p] -> [d]
        # with p <= 3; functoriality over every composable pair of those maps
        maps = {d: _maps_into(d, 3) for d in range(4)}
        index = {d: {phi: k for k, phi in enumerate(maps[d])} for d in range(4)}
        pairs = {
            d: [
                (a, g.source, b, index[d][compose_monotone(g, f)])
                for a, g in enumerate(maps[d])
                for b, f in enumerate(maps[g.source])
            ]
            for d in range(4)
        }
        checked = 0
        for space in _action_spaces():
            position = {x: k for d in range(4) for k, x in enumerate(space.simplices(d))}
            rows = {}  # rows[d][a][z]: position of apply_map(maps[d][a], simplices(d)[z])
            for d in range(4):
                rows[d] = []
                for phi in maps[d]:
                    row = []
                    for x in space.simplices(d):
                        y = space.apply_map(phi, x)
                        assert y == _epi_mono_apply_map(space, phi, x), (space, phi, x)
                        row.append(position[y])
                    rows[d].append(row)
                    checked += len(row)
            for d in range(4):
                for a, m, b, c in pairs[d]:
                    first, then = rows[d][a], rows[m][b]
                    assert rows[d][c] == [then[k] for k in first], (space, d, a, b)
        assert checked > 100_000

    def test_simplices_match_the_per_cell_listing(self):
        for space in _action_spaces():
            for d in range(6):
                assert tuple(space.iter_simplices(d)) == space.simplices(d) == tuple(
                    FormalSimplex(surjection_from_repeats(d, repeats), c)
                    for c in space.cells
                    if c.dim <= d
                    for repeats in combinations(range(d), d - c.dim)
                ), (space, d)

    def test_apply_map_reads_none_of_the_engine_tables(self):
        # apply_map is the reference act and face_table are tested against,
        # so neither it nor its helper may read their rule or their tables;
        # of the space's own state it reads only the cell face table
        tree = ast.parse(Path(simphom.simpset.__file__).read_text(encoding="utf-8"))
        functions = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("apply_map", "_factor_values")
        }
        assert set(functions) == {"apply_map", "_factor_values"}
        banned = {
            "face_table",
            "act",
            "normal_values",
            "_face_values",
            "_drop_value",
            "step_masks",
            "_offsets",
            "_positions",
            "_simplex_count",
            "_collapse_values",
            "_collapses",
            "_collapse_ranks",
            "_face_plan",
            "_shape_masks",
            "_edge_masks",
        }
        reads = [
            "%s:%d" % (name, node.lineno)
            for name, function in functions.items()
            for node in ast.walk(function)
            if (isinstance(node, ast.Attribute) and node.attr in banned)
            or (isinstance(node, ast.Name) and node.id in banned)
        ]
        assert not reads, reads
        state = {
            node.attr
            for node in ast.walk(functions["apply_map"])
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
        assert state == {"_faces"}, state

    def test_identity_action(self):
        space = delta(2)
        for p in range(4):
            for x in space.simplices(p):
                assert space.apply_map(identity_map(p), x) == x

    def test_simplicial_identity_validation(self):
        a, b, c = CellId(0, "a"), CellId(0, "b"), CellId(0, "c")
        e1, e2 = CellId(1, "e1"), CellId(1, "e2")
        t = CellId(2, "t")
        cs = cell_simplex
        faces = {
            e1: (cs(b), cs(a)),
            e2: (cs(c), cs(b)),
            t: (cs(e2), cs(e1), cs(e1)),
        }
        with pytest.raises(ValueError):
            SimplicialSet([a, b, c, e1, e2, t], faces)

    def test_identity_check_rejects_hand_made_bad_presentations(self):
        full = delta(2)
        top = full.cell("0,1,2")
        d0, d1, d2 = full.faces[top]
        cells = list(full.cells)
        for entries in [(d1, d0, d2), (d0, d1, d0)]:  # swapped, wrong generator
            faces = dict(full.faces)
            faces[top] = entries
            with pytest.raises(ValueError, match="face identities fail"):
                SimplicialSet(cells, faces)
        # an edge a -> b and a 2-cell whose 0-th face is degenerate: on b the
        # presentation is consistent, on a it is not
        a, b = CellId(0, "a"), CellId(0, "b")
        e, t = CellId(1, "e"), CellId(2, "t")
        cs = cell_simplex
        for vertex, ok in [(b, True), (a, False)]:
            faces = {
                e: (cs(b), cs(a)),
                t: (FormalSimplex(collapse_map(1), vertex), cs(e), cs(e)),
            }
            if ok:
                SimplicialSet([a, b, e, t], faces)
            else:
                with pytest.raises(ValueError, match="face identities fail on 't'"):
                    SimplicialSet([a, b, e, t], faces)

    def test_corpus_spaces_build_and_satisfy_the_identities_via_apply_map(self):
        # the construction-time check works on value tuples; face/apply_map
        # is the slow reference it must agree with
        for entry in corpus(seed=3, count=200):
            space = entry.space
            for c in space.cells:
                if c.dim < 2:
                    continue
                x = cell_simplex(c)
                for j in range(1, c.dim + 1):
                    for i in range(j):
                        assert space.face(space.face(x, j), i) == space.face(
                            space.face(x, i), j - 1
                        ), (entry.name, c.name, i, j)

    def test_identity_check_agrees_with_apply_map_on_perturbed_tables(self, monkeypatch):
        # each corpus cell of dimension >= 2 with its face table perturbed:
        # two entries swapped, or one replaced by another simplex of its
        # degree.  Construction raises exactly when the face/apply_map
        # reference finds a failing identity, naming the same first failure
        def reference(cells, faces):
            with monkeypatch.context() as patch:
                patch.setattr(SimplicialSet, "_check_simplicial_identities", lambda self: None)
                space = SimplicialSet(cells, faces)
            for c in space.cells:
                if c.dim < 2:
                    continue
                x = cell_simplex(c)
                for j in range(1, c.dim + 1):
                    for i in range(j):
                        left = space.face(space.face(x, j), i)
                        if left != space.face(space.face(x, i), j - 1):
                            return "face identities fail on %r at (i=%d, j=%d)" % (c.name, i, j)
            return None

        outcomes = {True: 0, False: 0}
        for entry in corpus(0):
            space = entry.space
            for c in space.cells:
                if c.dim < 2:
                    continue
                entries = space.faces[c]
                others = space.simplices(c.dim - 1)
                tables = []
                for a, b in combinations(range(c.dim + 1), 2):
                    swapped = list(entries)
                    swapped[a], swapped[b] = entries[b], entries[a]
                    tables.append(swapped)
                for k in range(c.dim + 1):
                    for y in others[k :: max(1, len(others) // 3)]:
                        tables.append(entries[:k] + (y,) + entries[k + 1 :])
                for table in tables:
                    faces = dict(space.faces)
                    faces[c] = tuple(table)
                    want = reference(space.cells, faces)
                    outcomes[want is None] += 1
                    if want is None:
                        SimplicialSet(space.cells, faces)
                    else:
                        with pytest.raises(ValueError) as caught:
                            SimplicialSet(space.cells, faces)
                        assert str(caught.value) == want, (entry.name, c.name, table)
        assert outcomes[True] >= 50 and outcomes[False] >= 50, outcomes
        # two failing pairs, (1, 2) and (0, 3): j runs outermost, so (1, 2) is named
        full = delta(3)
        top = full.cell("0,1,2,3")
        d0, _, d2, _ = full.faces[top]
        faces = dict(full.faces)
        faces[top] = (d0, cell_simplex(full.cell("1,2,3")), d2, cell_simplex(full.cell("0,1,3")))
        want = "face identities fail on '0,1,2,3' at (i=1, j=2)"
        assert reference(full.cells, faces) == want
        with pytest.raises(ValueError) as caught:
            SimplicialSet(full.cells, faces)
        assert str(caught.value) == want

    def test_construction_never_calls_apply_map(self, apply_map_calls):
        square = product(delta(2), delta(2))  # its factor faces take the slow route
        apply_map_calls.clear()
        for space in [delta(9), quotient(delta(3), ["0,3"]), square]:
            SimplicialSet(space.cells, space.faces)
        assert apply_map_calls == []


def _epi_mono_apply_map(space, phi, x):
    """The former ``apply_map``, kept as the reference: x.epi o phi factored
    as validated maps, and the injective part pushed through the face table
    one missing value at a time, re-normalising after every lookup."""
    epi, mono = epi_mono_factor(compose_monotone(x.epi, phi))
    cell = x.generator
    if mono.source == cell.dim:
        y = cell_simplex(cell)
    else:
        image = set(mono.values)
        j = next(v for v in range(cell.dim, -1, -1) if v not in image)
        reduced = MonotoneMap(
            mono.source, cell.dim - 1, tuple(v if v < j else v - 1 for v in mono.values)
        )
        y = _epi_mono_apply_map(space, reduced, space.faces[cell][j])
    return FormalSimplex(compose_monotone(y.epi, epi), y.generator)


def _maps_into(d, top):
    """Every monotone map [p] -> [d] with p <= top."""
    return [
        MonotoneMap(p, d, values)
        for p in range(top + 1)
        for values in combinations_with_replacement(range(d + 1), p + 1)
    ]


def _collapsed_ball(q):
    return quotient(delta(q), [c.name for c in boundary_delta(q).cells_of_dim(q - 1)])


def _action_spaces():
    return [e.space for e in corpus(3, 40)] + [_collapsed_ball(2), quotient(delta(2), ["0,1"])]


class TestConstructors:
    def test_boundary_and_horn(self):
        assert len(boundary_delta(2).cells) == 6
        assert len(horn(2, 1).cells) == 5
        assert len(boundary_delta(3).cells) == 14
        assert len(horn(3, 1).cells) == 13
        assert boundary_delta(2).dim == 1
        assert horn(2, 1).has_cell("0,1") and horn(2, 1).has_cell("1,2")
        assert not horn(2, 1).has_cell("0,2")

    def test_subcomplex_closes_under_faces(self):
        space = delta(3)
        sub = subcomplex(space, ["0,1,2"])
        assert sorted(c.name for c in sub.cells) == ["0", "0,1", "0,1,2", "0,2", "1", "1,2", "2"]

    def test_union(self):
        left = subcomplex(delta(2), ["0,1"])
        right = subcomplex(delta(2), ["1,2"])
        both = union(left, right)
        assert len(both.cells) == 5
        assert is_isomorphic(both, horn(2, 1))

    def test_disjoint_sum(self):
        two = disjoint_sum(delta(1), delta(1))
        assert len(two.cells) == 6
        assert two.dim == 1

    def test_product_square(self):
        square = product(delta(1), delta(1))
        assert [len(square.cells_of_dim(d)) for d in range(3)] == [4, 5, 2]

    def test_product_top_cells_are_shuffles(self):
        prism = product(delta(1), delta(2))
        assert len(prism.cells_of_dim(3)) == math.comb(3, 1)
        # cells of each dimension = injective chains in the 2x3 grid poset
        assert [len(prism.cells_of_dim(d)) for d in range(4)] == [6, 12, 10, 3]

    def test_product_with_point(self):
        assert is_isomorphic(product(delta(0), delta(2)), delta(2))

    def test_quotient_collapsed_edge(self):
        squashed = quotient(delta(2), ["0,2"])
        assert len(squashed.cells) == 5
        assert squashed.has_cell("*")
        top = cell_simplex(squashed.cell("0,1,2"))
        d1 = squashed.face(top, 1)
        assert d1.is_degenerate and d1.generator.name == "*"

    def test_quotient_boundary_sphere(self):
        ball = quotient(delta(3), [c.name for c in boundary_delta(3).cells_of_dim(2)])
        assert sorted(c.dim for c in ball.cells) == [0, 3]
        top = cell_simplex(ball.cell("0,1,2,3"))
        for i in range(4):
            f = ball.face(top, i)
            assert f.generator.name == "*" and f.epi == collapse_map(2)

    def test_quotient_star_name_collision(self):
        # a surviving vertex literally called "*" forces a suffixed star name
        space = nerve_poset(["*", "b", "c"], {("b", "c")})
        squashed = quotient(space, ["b<c"])
        assert {c.name for c in squashed.cells} == {"*", "*1"}

    def test_quotient_rejects_unknown_cells(self):
        with pytest.raises(KeyError):
            quotient(delta(2), ["nope"])

    def test_nerve_chain_is_standard_simplex(self):
        chain = nerve_poset(["a", "b", "c"], {("a", "b"), ("b", "c"), ("a", "c")})
        assert is_isomorphic(chain, delta(2))

    def test_nerve_vee(self):
        vee = nerve_poset(["a", "b", "c"], {("a", "b"), ("a", "c")})
        assert [len(vee.cells_of_dim(d)) for d in range(2)] == [3, 2]

    def test_nerve_diamond(self):
        rel = {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")}
        diamond = nerve_poset(["a", "b", "c", "d"], rel)
        assert [len(diamond.cells_of_dim(d)) for d in range(3)] == [4, 5, 2]

    def test_nerve_requires_transitive_closure(self):
        with pytest.raises(ValueError):
            nerve_poset(["a", "b", "c"], {("a", "b"), ("b", "c")})

    def test_nerve_rejects_cycles(self):
        with pytest.raises(ValueError):
            nerve_poset(["a", "b"], {("a", "b"), ("b", "a")})

    def test_transitive_closure_matches_the_fixpoint_reference(self):
        cases = [[], [(0, 0)], [(0, 1), (1, 0)], [("a", "b"), ("b", "c"), ("c", "a"), ("d", "d")]]
        rng = random.Random(24)
        for size in range(1, 9):
            for _ in range(30):
                count = rng.randrange(2 * size + 1)
                cases.append([(rng.randrange(size), rng.randrange(size)) for _ in range(count)])
        self_pairs = cycles = 0
        for pairs in cases:
            closed = transitive_closure(pairs)
            assert closed == _fixpoint_closure(pairs), pairs
            self_pairs += any(x == y for x, y in pairs)
            cycles += any(x == y for x, y in closed) and not any(x == y for x, y in pairs)
        # both kinds of (v, v) in the closure are covered
        assert self_pairs > 10 and cycles > 10


def _fixpoint_closure(pairs):
    """The former ``transitive_closure``, kept as the reference: it rescans
    every pair of the relation until no pass adds one."""
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(rel):
            for (y2, z) in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return rel


class TestSerialisation:
    def test_round_trip_exact(self):
        for space in [delta(2), quotient(delta(2), ["0,2"]), product(delta(1), delta(1))]:
            data = to_json_dict(space)
            back = from_json_dict(data)
            assert sorted(c.name for c in back.cells) == sorted(c.name for c in space.cells)
            assert is_isomorphic(back, space)

    def test_json_is_plain_data(self):
        import json

        blob = json.dumps(to_json_dict(horn(2, 0)))
        assert from_json_dict(json.loads(blob)).dim == 1


class TestBacktrack:
    """The core's contract, on synthetic slots: results are the tuples the
    extensions allow, in lexicographic candidate order, however the levels
    are cut into chunks."""

    def test_results_follow_the_filtered_product_in_order(self):
        size, values = 7, range(5)

        def fits(prefix, z):
            # read earlier slots, near and far, so every level filters
            m = len(prefix)
            return m < 2 or (z + prefix[m - 2]) % 3 != 0 or z == prefix[m // 2]

        grown = [0] * size

        def extend(m, prefixes):
            assert 0 < len(prefixes) <= _CHUNK
            assert all(len(x) == m for x in prefixes)
            out = [x + (z,) for x in prefixes for z in values if fits(x, z)]
            grown[m] += len(out)
            return out

        expected = [
            t for t in tuples(values, repeat=size) if all(fits(t[:m], t[m]) for m in range(size))
        ]
        assert list(_backtrack(size, extend)) == expected
        assert len(expected) == grown[-1] > 0
        assert max(grown[:-1]) > 4 * _CHUNK  # several chunks on one level

    def test_no_slot_yields_the_empty_tuple_once(self):
        def extend(m, prefixes):
            raise AssertionError("no slot to extend")

        assert list(_backtrack(0, extend)) == [()]

    def test_a_dead_level_ends_the_search(self):
        def extend(m, prefixes):
            return [] if m == 1 else [x + (0,) for x in prefixes]

        assert list(_backtrack(3, extend)) == []

    def test_a_chain_longer_than_the_recursion_limit(self):
        size = 5000
        chain = list(_backtrack(size, lambda m, prefixes: [x + (m,) for x in prefixes]))
        assert chain == [tuple(range(size))]


class TestIsomorphism:
    def test_positive(self):
        assert is_isomorphic(delta(2), delta(2))
        assert is_isomorphic(product(delta(1), delta(0)), delta(1))

    def test_negative(self):
        assert not is_isomorphic(delta(1), boundary_delta(2))
        vee = nerve_poset(["a", "b", "c"], {("a", "b"), ("a", "c")})
        wedge = nerve_poset(["a", "b", "c"], {("a", "c"), ("b", "c")})
        assert not is_isomorphic(vee, wedge)  # sources vs sinks differ

    def test_more_cells_than_the_recursion_limit(self):
        # delta(9) has 1023 cells, one search slot each
        assert is_isomorphic(delta(9), delta(9))

    def test_respects_face_structure(self):
        # same cell vector, different gluing: cylinder vs Moebius-like twist
        left = quotient(delta(2), ["0,1"])
        right = quotient(delta(2), ["0,2"])
        assert [c.dim for c in left.cells] == [c.dim for c in right.cells]
        assert is_isomorphic(left, right) == is_isomorphic(right, left)


class TestFaceTable:
    def test_entries_are_the_positions_of_the_faces(self):
        # the slow route through face/apply_map is the reference
        landmarks = [e.space for e in corpus()]
        seeded = [e.space for e in corpus(seed=3, count=len(landmarks) + 8)[len(landmarks):]]
        spaces = landmarks + seeded + [
            product(horn(2, 1), delta(1)),
            quotient(boundary_delta(3), ["0,1"]),
        ]
        for space in spaces:
            for d in range(1, 7):
                below = {x: k for k, x in enumerate(space.simplices(d - 1))}
                table = space.face_table(d)
                assert len(table) == d + 1
                for i, column in enumerate(table):
                    # column i is the action row of the i-th face map
                    row = space.act(face_map(i, d))
                    assert len(column) == len(space.simplices(d))
                    for z, x in enumerate(space.simplices(d)):
                        assert column[z] == below[space.face(x, i)] == row[z]

    def test_degree_zero_has_no_faces(self):
        with pytest.raises(ValueError):
            delta(1).face_table(0)


def _elementary_maps(p):
    """The identity, face and degeneracy maps into [p]."""
    faces = [face_map(i, p) for i in range(p + 1)] if p else []
    return [identity_map(p)] + faces + [degeneracy_map(k, p) for k in range(p + 1)]


class TestAct:
    def test_act_matches_apply_map(self):
        # apply_map is the slow reference: act must agree with it entry by
        # entry, for the maps the engine acts by and the reindex plans' psi
        maps = set()
        for d in range(5):
            maps.update(_elementary_maps(d))
            maps.update(edge_map(i, r, d) for r in range(1, d + 1) for i in range(d + 1 - r))
        for p in range(5):
            for n in range(5 - p):
                for theta in _elementary_maps(p):
                    for gamma in _elementary_maps(n):
                        maps.update(psi for _, psi in _reindex_plan(theta, gamma))
        spaces = [e.space for e in corpus(3, 40)]
        spaces += [_collapsed_ball(2), quotient(delta(2), ["0,2"])]
        checked = 0
        for space in spaces:
            for psi in maps:
                below = space.simplices(psi.source)
                for z, x in enumerate(space.simplices(psi.target)):
                    assert below[space.act(psi)[z]] == space.apply_map(psi, x), (space, psi, z)
                    checked += 1
        assert checked > 100_000

    def test_act_rejects_a_negative_position(self):
        space = delta(2)
        space.act(face_map(0, 2))[len(space.simplices(2)) - 1]
        with pytest.raises(IndexError):
            space.act(face_map(0, 2))[-1]

    def test_act_rejects_a_position_past_the_end(self):
        space = delta(2)
        row = space.act(face_map(0, 2))
        with pytest.raises(IndexError):
            row[len(space.simplices(2))]
        row[len(space.simplices(2)) - 1]
        assert list(row) == [len(space.simplices(2)) - 1]  # only what was read

    def test_act_keeps_one_row_per_map(self):
        space = delta(2)
        assert space.act(face_map(0, 2)) is space.act(face_map(0, 2))
        assert space.act(face_map(0, 2)) is not space.act(face_map(1, 2))


_SHAPE_TABLES = (
    simphom.simpset._collapses,
    simphom.simpset._collapse_ranks,
    simphom.simpset._face_plan,
    simphom.simpset._shape_masks,
)


def _engine_tables(space, top):
    """The face tables, step masks and full act rows of the elementary maps
    of degrees up to ``top``, read through the engine's tables only."""
    out = {}
    for d in range(top + 1):
        positions = range(simphom.simpset._simplex_count(space, d))
        rows = {psi: [space.act(psi)[z] for z in positions] for psi in _elementary_maps(d)}
        out[d] = (space.face_table(d) if d else None, space.step_masks(d), rows)
    return out


def _reference_tables(space, top):
    """What :func:`_engine_tables` reads, through simplices, face and apply_map."""
    index = {}
    for d in range(top + 2):
        index[d] = {x: k for k, x in enumerate(space.simplices(d))}
    out = {}
    for d in range(top + 1):
        simplices = space.simplices(d)
        faces = None
        if d:
            faces = tuple(
                tuple(index[d - 1][space.face(x, i)] for x in simplices) for i in range(d + 1)
            )
        repeats, edges = [], []
        for x in simplices:
            v = x.epi.values
            repeats.append(sum(1 << s for s in range(d) if v[s] == v[s + 1]))
            edges.append(
                sum(1 << s for s in range(d) if space.apply_map(edge_map(s, 1, d), x).is_degenerate)
            )
        rows = {
            psi: [index[psi.source][space.apply_map(psi, x)] for x in simplices]
            for psi in _elementary_maps(d)
        }
        out[d] = (faces, (tuple(repeats), tuple(edges)), rows)
    return out


class TestShapeTables:
    # face_table, step_masks and act read per-shape tables shared by every
    # target, plus each target's cell offsets: no simplex is listed
    def test_tables_of_a_fresh_target_list_no_simplex(self):
        for entry in corpus():
            space = SimplicialSet(entry.space.cells, entry.space.faces)
            _engine_tables(space, 5)
            simphom.hom.enumerate_hom_simplices(space, 1, 2)
            assert vars(space)["_simplex_cache"] == {}, entry.name

    def test_targets_sharing_shapes_match_the_slow_route_in_either_order(self):
        def make():
            return [delta(3), quotient(delta(3), ["0,3"])]

        for order in (make(), make()[::-1]):
            for table in _SHAPE_TABLES:
                table.cache_clear()
            got = [_engine_tables(space, 5) for space in order]
            assert simphom.simpset._face_plan.cache_info().hits > 0  # shared
            for space, tables in zip(order, got):
                assert tables == _reference_tables(space, 5), space

    def test_shape_tables_are_bounded_and_keep_every_shape_of_a_sweep(self):
        # the landmarks' tables up to degree 12 take more shapes than a
        # benchmark pass, at most 49 per table, and none is evicted
        for table in _SHAPE_TABLES:
            assert table.cache_info().maxsize == simphom.simpset._SHAPES
            table.cache_clear()
        for entry in corpus():
            space = SimplicialSet(entry.space.cells, entry.space.faces)
            for d in range(1, 13):
                space.face_table(d)
                space.step_masks(d)
        for table in _SHAPE_TABLES:
            info = table.cache_info()
            assert info.currsize == info.misses, (table, info)
