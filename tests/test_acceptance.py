"""End-to-end acceptance checks, one test per headline guarantee.

Every test here is deliberately redundant with some other route through
the package: dimension formulas are checked against independent counting
oracles, fast degeneracy filters against the generic retraction test,
assembled mapping complexes against the regularity checker, and the
regularity predicates against each other on a 200-set corpus.  Each test
states its scale and tolerance in its own assertions, so a ``pytest -v``
line per test doubles as the acceptance report.
"""

import time

from simphom import (
    MonotoneMap,
    almost_degenerate_at,
    boundary_delta,
    brute_force_hom_count,
    compose_monotone,
    corpus,
    count_monotone_lattice_maps,
    degeneracy_map,
    delta,
    dim_hom,
    dim_hom_general,
    disjoint_sum,
    edge_detects_degeneracy,
    edge_map,
    enumerate_hom_simplices,
    face_map,
    hom_complex,
    hom_simplex,
    horn,
    is_degenerate_family,
    is_degenerate_hom,
    is_regular,
    is_strongly_regular,
    iter_hom_families,
    lurie_family,
    nerve_poset,
    product,
    satisfies_pr,
    subcomplex,
    theorem1bis_bound,
    union,
)

LANDMARKS = {entry.name: entry for entry in corpus(0)}
REGULAR = [entry for entry in corpus(0) if is_regular(entry.space)]

# Exhaustive mapping-space sweeps are bounded by the top relevant degree
# (height + 1) * dim: every (set, height) pair with that product at most 6
# stays in the tens of thousands of simplices; the first excluded instance,
# the 3-simplex at height 2, already holds about 2.2 million.
SWEEP = [
    (entry, n)
    for entry in REGULAR
    for n in (1, 2)
    if (n + 1) * entry.space.dim <= 6
]

ALL_TETRA_FACETS = (
    frozenset({0, 1, 2}),
    frozenset({0, 1, 3}),
    frozenset({0, 2, 3}),
    frozenset({1, 2, 3}),
)


def test_interval_and_triangle_mapping_spaces_have_tight_dimension():
    """dim Hom(D^n, D^q) equals (n+1)q exactly for n, q in {1, 2}."""
    expected = {(1, 1): 2, (2, 1): 3, (1, 2): 4, (2, 2): 6}
    for (n, q), want in sorted(expected.items()):
        started = time.monotonic()
        result = dim_hom(delta(q), n)
        elapsed = time.monotonic() - started
        assert result.exact, (n, q)
        assert result.value == want, (n, q, result.value)
        assert elapsed < 60.0, (n, q, elapsed)


def test_regular_targets_never_exceed_the_dimension_ceiling():
    """dim Hom(D^n, X) <= (n+1) dim X on every regular corpus set, n in {1,2}."""
    assert len(REGULAR) >= 10
    names = {entry.name for entry in REGULAR}
    assert sum(1 for name in names if name.startswith("nerve-")) >= 4
    assert {"triangle/long-edge", "tetra/long-edge"} <= names
    started = time.monotonic()
    for entry in REGULAR:
        for n in (1, 2):
            result = dim_hom(entry.space, n)
            assert result.exact, (entry.name, n)
            assert result.value <= (n + 1) * entry.space.dim, (
                entry.name,
                n,
                result.value,
            )
    assert time.monotonic() - started < 600.0


def test_collapsed_simplex_towers_stay_nondegenerate_through_width_12():
    """Over the 3-simplex with its whole boundary collapsed, the clamped-shift
    family is a valid, nondegenerate mapping simplex at every width 4..12,
    so the interval mapping space reaches dimension 12 there; the two-facet
    collapse of the 4-simplex behaves the same through width 8."""
    started = time.monotonic()
    for p in range(4, 13):
        space, f = lurie_family(p, 3, facets=ALL_TETRA_FACETS)
        assert space.dim == 3 and len(space.cells) == 2
        assert not is_regular(space)
        # rebuilding from the raw assignment repeats the full compatibility
        # validation of every adjacent pair of paths
        rebuilt = hom_simplex(space, f.width, f.height, f.assignment())
        assert rebuilt == f
        assert f.width == p and f.height == 1
        assert not is_degenerate_hom(f), p
    for p in range(5, 9):
        space, f = lurie_family(p, 4)
        assert space.dim == 4
        rebuilt = hom_simplex(space, f.width, f.height, f.assignment())
        assert rebuilt == f
        assert not is_degenerate_hom(f), p
    assert time.monotonic() - started < 60.0


def test_engine_counts_match_brute_force_and_lattice_oracles():
    """Three independent counts of |Hom(D^n, X)_p| agree: the path-engine
    enumeration, a cell-by-cell count of simplicial maps out of the product
    D^p x D^n, and (for standard-simplex targets) a grid-monotone DP."""
    # every corpus landmark, small heights and widths, against brute force
    for entry in LANDMARKS.values():
        space = entry.space
        assert len(space.cells) <= 40, entry.name
        for n in (0, 1, 2):
            for p in (0, 1, 2):
                engine = len(enumerate_hom_simplices(space, n, p))
                oracle = brute_force_hom_count(
                    delta(n), space, p, node_budget=50_000_000
                )
                assert engine == oracle, (entry.name, n, p, engine, oracle)
    # standard-simplex pairs against the closed-form grid count
    for n in (1, 2):
        for q in range(0, 4):
            for p in range(0, 7 - n):
                engine = len(enumerate_hom_simplices(delta(q), n, p))
                lattice = count_monotone_lattice_maps(p, n, q)
                assert engine == lattice, (n, q, p, engine, lattice)
    # spot extensions where the brute-force route is still affordable
    for n, q, p in ((1, 2, 3), (1, 2, 4), (1, 3, 3), (1, 3, 4), (2, 2, 3)):
        engine = len(enumerate_hom_simplices(delta(q), n, p))
        lattice = count_monotone_lattice_maps(p, n, q)
        oracle = brute_force_hom_count(delta(n), delta(q), p, node_budget=50_000_000)
        assert engine == lattice == oracle, (n, q, p)


def test_fully_degenerate_columns_characterise_degeneracy_over_regular_targets():
    """Over a regular target, a mapping simplex is degenerate exactly when
    some column of its grid restricts degenerately on all its horizontal
    edges; over an irregular target only one direction survives, and the
    collapsed-boundary tower exhibits the failing converse."""
    for entry, n in SWEEP:
        space = entry.space
        top = (n + 1) * space.dim
        for p in range(0, top + 1):
            for f in enumerate_hom_simplices(space, n, p):
                generic = is_degenerate_hom(f)
                columns = any(
                    almost_degenerate_at(f, k) for k in range(f.width)
                )
                assert generic == columns, (entry.name, n, p)
    # the exhibited failure of the converse over an irregular target
    space, f = lurie_family(4, 3, facets=ALL_TETRA_FACETS)
    assert not is_regular(space)
    assert all(almost_degenerate_at(f, k) for k in range(f.width))
    assert not is_degenerate_hom(f)


def test_regularity_equivalences_hold_on_a_200_set_corpus():
    """On 200 seeded sets: strong regularity is exactly the conjunction of
    the edge properties at widths 1 and 2, and regularity, the width-1 edge
    property, and edge-detection of degeneracy are all the same predicate.
    The two operator commutation tables behind those proofs are checked
    exhaustively through degree 6."""
    entries = corpus(0, 200)
    assert len(entries) == 200
    regular_count = strong_count = 0
    for entry in entries:
        space = entry.space
        p1 = satisfies_pr(space, 1)
        p2 = satisfies_pr(space, 2)
        regular = bool(is_regular(space))
        strong = bool(is_strongly_regular(space))
        edges = bool(edge_detects_degeneracy(space, space.dim + 2))
        assert regular == bool(p1) == edges, entry.name
        assert strong == (bool(p1) and bool(p2)), entry.name
        regular_count += regular
        strong_count += strong
    # the corpus must make both equivalences non-vacuous in each direction
    assert 0 < strong_count < regular_count < 200

    # collapse maps past two-point edge maps, exhaustively for p <= 6
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
    # insertion maps past elementary edge maps, exhaustively for p <= 6
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


def test_regularity_is_closed_under_the_standard_constructions():
    """Products, subcomplexes, unions, and sums of regular sets are regular,
    and every nerve of a poset is regular; the seeded corpus entries built
    by those constructions are all strongly regular."""
    d1, d2, d3 = delta(1), delta(2), delta(3)
    vee = LANDMARKS["nerve-vee"].space
    chain = LANDMARKS["nerve-chain"].space
    square = LANDMARKS["square"].space

    products = [
        product(d1, d1),
        product(d1, d2),
        product(d2, d2),
        product(d1, boundary_delta(2)),
        product(d1, vee),
        product(d2, chain),
    ]
    subcomplexes = [
        subcomplex(d3, ("0,1,2", "0,1,3")),
        subcomplex(d3, ("0,1,2", "2,3")),
        subcomplex(delta(4), ("0,1,2,3", "1,2,3,4")),
        boundary_delta(3),
        horn(3, 1),
        horn(4, 2),
    ]
    unions = [
        union(subcomplex(d2, ("0,1",)), subcomplex(d2, ("1,2",))),
        union(subcomplex(d3, ("0,1,2",)), subcomplex(d3, ("0,2,3",))),
        union(boundary_delta(2), subcomplex(d2, ("0,1,2",))),
    ]
    sums = [
        disjoint_sum(d2, vee),
        disjoint_sum(square, boundary_delta(2)),
        disjoint_sum(disjoint_sum(d1, d1), d3),
    ]
    divisibility = nerve_poset(
        tuple(range(2, 13)),
        {(a, b) for a in range(2, 13) for b in range(2, 13) if b != a and b % a == 0},
    )
    subsets = tuple(
        frozenset(s)
        for s in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2})
    )
    containment = nerve_poset(
        subsets, {(a, b) for a in subsets for b in subsets if a < b}
    )
    nerves = [
        vee,
        chain,
        LANDMARKS["nerve-diamond"].space,
        LANDMARKS["nerve-fence"].space,
        nerve_poset(tuple("abcde"), {(x, y) for x in "abcde" for y in "abcde" if x < y}),
        divisibility,
        containment,
    ]
    for group in (products, subcomplexes, unions, sums, nerves):
        for space in group:
            assert is_regular(space), space

    built_by_construction = [e for e in corpus(0, 200) if e.regular is True]
    assert len(built_by_construction) >= 100
    for entry in built_by_construction:
        assert is_strongly_regular(entry.space), entry.name


def test_assembled_mapping_complexes_are_themselves_regular():
    """The mapping space of a regular target, assembled into an explicit
    simplicial set from its nondegenerate simplices, passes the regularity
    check; heights 1 and 2 over every regular corpus set in sweep scope."""
    for entry, n in SWEEP:
        assembled, legend = hom_complex(entry.space, n)
        assert len(legend) == len(assembled.cells), (entry.name, n)
        assert is_regular(assembled), (entry.name, n)


def _general_source_pairs():
    """26 source/target pairs; every source has at most 3 positive-dimensional
    cells."""
    pt, d1, d2 = delta(0), delta(1), delta(2)
    two_pt = disjoint_sum(pt, pt)
    three_pt = disjoint_sum(two_pt, pt)
    interval_and_point = disjoint_sum(d1, pt)
    vee = LANDMARKS["nerve-vee"].space
    fence = LANDMARKS["nerve-fence"].space
    horn21 = LANDMARKS["horn21"].space
    bd2 = LANDMARKS["boundary2"].space
    wedge = nerve_poset(("a", "b", "c"), {("a", "c"), ("b", "c")})
    square = LANDMARKS["square"].space
    long_edge = LANDMARKS["triangle/long-edge"].space

    pairs = [
        (pt, pt), (d1, pt), (vee, pt), (horn21, pt), (bd2, pt),
        (pt, d1), (two_pt, d1), (three_pt, d1), (d1, d1),
        (interval_and_point, d1), (vee, d1), (wedge, d1), (horn21, d1),
        (fence, d1), (bd2, d1),
        (pt, d2), (two_pt, d2), (three_pt, d2), (d1, d2),
        (pt, long_edge), (two_pt, long_edge), (three_pt, long_edge),
        (d1, long_edge),
        (pt, square), (two_pt, square), (d1, square),
    ]
    return pairs


def test_general_source_dimensions_respect_the_additive_bound():
    """For 26 source/target pairs (sources with at most 3 positive-dimensional
    cells), the computed dimension of the mapping space from a finite source
    never exceeds the additive per-cell bound."""
    pairs = _general_source_pairs()
    assert len(pairs) >= 20
    for source, target in pairs:
        positive = sum(1 for cell in source.cells if cell.dim > 0)
        assert positive <= 3
        result = dim_hom_general(source, target)
        bound = theorem1bis_bound(source, target)
        assert result.exact
        assert result.value <= bound, (result.value, bound)


def test_general_source_dimensions_match_a_scan_from_the_additive_bound():
    """The dimension of Hom(U, X), found from the sum over the maximal cells
    of U and tested on their components only, equals the top degree found
    by scanning down from the additive bound with every component tested,
    on all 26 pairs of the test above."""
    for source, target in _general_source_pairs():
        expected = -1
        for p in range(theorem1bis_bound(source, target), -1, -1):
            families = iter_hom_families(source, target, p)
            if any(not is_degenerate_family(family) for family in families):
                expected = p
                break
        assert dim_hom_general(source, target).value == expected, (source, target)
