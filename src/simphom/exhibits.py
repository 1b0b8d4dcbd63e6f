"""Worked constructions: extreme simplices, counterexamples, and a corpus.

Three families of concrete material live here, kept apart from the general
machinery so each can be checked against it:

* lattice functions — maps of grids into a standard simplex target, the
  hands-on presentation of mapping-space simplices when the target is a
  standard simplex — with the extremal ("tight") simplex that realises the
  maximal dimension (n + 1) * q;
* the clamped-shift family over a partially collapsed simplex: a mapping
  space simplex whose columns are all degenerate yet which is not itself
  degenerate, available in every width p > q, showing that degeneracy in
  mapping spaces out of an interval is not detected columnwise once the
  target stops being regular;
* a reproducible corpus of finite simplicial sets (standard simplices,
  boundaries, horns, nerves of posets, products, unions, sums, quotients)
  used throughout the test-suite, with known regularity flags where theory
  settles them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .hom import (
    HomSimplex,
    _turning_word,
    _written_simplex,
    staircase_table,
    validate_hom_simplex,
)
from .simpset import (
    SimplicialSet,
    _vertex_name,
    _vertex_tuple,
    boundary_delta,
    delta,
    disjoint_sum,
    horn,
    nerve_poset,
    product,
    quotient,
    subcomplex,
    transitive_closure,
    union,
)


def clamp(value, low, high):
    """Clip an integer into the closed interval [low, high]."""
    return max(low, min(high, value))


# ---------------------------------------------------------------------------
# Lattice functions: Hom(D^n, D^q) simplices as grid-indexed vertex values.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeFunction:
    """A map of grids [width] x [height] -> [target], monotone in each axis.

    ``table[i][j]`` is the value at the grid point (i, j).  Such functions
    are exactly the mapping-space simplices with a standard-simplex target:
    a p-simplex of Hom(D^n, D^q) is determined by its vertex values.
    """

    width: int
    height: int
    target: int
    table: tuple

    def __post_init__(self):
        if len(self.table) != self.width + 1:
            raise ValueError("table needs one column per grid abscissa")
        for col in self.table:
            if len(col) != self.height + 1:
                raise ValueError("each column needs one value per ordinate")
            for v in col:
                if not 0 <= v <= self.target:
                    raise ValueError("value %r outside the target range" % (v,))
            if any(col[j] > col[j + 1] for j in range(self.height)):
                raise ValueError("column values must be weakly increasing")
        for i in range(self.width):
            a, b = self.table[i], self.table[i + 1]
            if any(a[j] > b[j] for j in range(self.height + 1)):
                raise ValueError("rows must be weakly increasing")

    def value(self, i, j):
        return self.table[i][j]

    def column(self, i):
        return self.table[i]

    def degenerate_columns(self):
        """Indices k with column k equal to column k+1.

        With a standard-simplex target these are exactly the degeneracy
        directions of the corresponding mapping-space simplex.
        """
        return tuple(
            k for k in range(self.width) if self.table[k] == self.table[k + 1]
        )


def tight_simplex(n, q):
    """The extremal simplex of Hom(D^n, D^q) in degree (n + 1) * q.

    Vertex values are the staircase of :func:`simphom.hom.staircase_table`.
    Consecutive columns always differ, so the simplex is nondegenerate and
    realises the dimension ceiling of the mapping space.
    """
    if n < 0 or q < 1:
        raise ValueError("tight_simplex needs n >= 0 and q >= 1")
    return LatticeFunction((n + 1) * q, n, q, staircase_table(n, q))


def lattice_to_hom(space, fn):
    """Interpret a lattice function as a simplex of Hom(D^height, space).

    ``space`` must be the standard simplex of dimension ``fn.target``
    (cells named by their vertex lists), e.g. ``delta(fn.target)``; the
    table is written into its cell ``0,...,target``.
    """
    if space.dim != fn.target:
        raise ValueError("target simplex dimension does not match the function")
    top = space.cell(_vertex_name(range(fn.target + 1)))
    f = _written_simplex(
        space, top, fn.width, fn.height,
        lambda path: tuple(fn.value(i, j) for i, j in path.points()),
    )
    validate_hom_simplex(f)
    return f


def hom_to_lattice(f):
    """Recover the lattice function from a simplex over a standard simplex.

    Inverse to :func:`lattice_to_hom`; requires the target's cells to be
    named by their vertex lists.
    """
    q = f.space.dim
    cols = []
    for i in range(f.width + 1):
        col = []
        for j in range(f.height + 1):
            fs = f.value(_turning_word(i, j, f.width, f.height))
            gen_vertices = _vertex_tuple(fs.generator.name)
            col.append(gen_vertices[fs.epi(i + j)])
        cols.append(tuple(col))
    return LatticeFunction(f.width, f.height, q, tuple(cols))


# ---------------------------------------------------------------------------
# The clamped-shift family over a partially collapsed simplex.
# ---------------------------------------------------------------------------

def lurie_family(p, q, anchor=1, facets=None):
    """A width-p interval-mapping simplex, all of whose columns restrict
    degenerately, over a target that is not regular — yet nondegenerate.

    The target is the standard q-simplex with a union of facets collapsed
    to a point; the union must contain the two facets omitting ``anchor``
    and ``anchor + 1``.  The simplex assigns to the path crossing at column
    u the clamped shift  i |-> clamp(i - u + anchor, 0, q): consecutive
    assignments disagree in the simplex, but their shared faces each miss
    a vertex of the anchor pair, so both collapse and the family is
    compatible over the quotient.  In the enforced range p > q the
    fully-surjective components always survive and witness nondegeneracy.

    Returns ``(space, simplex)``.
    """
    if not 1 <= anchor <= q - 2:
        raise ValueError(
            "anchor must satisfy 1 <= anchor <= q - 2 (so both anchor values "
            "occur exactly once in every clamped shift); in particular q >= 3"
        )
    if p <= q:
        raise ValueError("the family needs width p > q, got p = %d" % (p,))
    everything = frozenset(range(q + 1))
    required = (everything - {anchor}, everything - {anchor + 1})
    if facets is None:
        facets = required
    facets = [frozenset(fc) for fc in facets]
    for fc in facets:
        if not fc < everything:
            raise ValueError("each collapsed facet must be a proper vertex subset")
    for need in required:
        if need not in facets:
            raise ValueError(
                "the collapsed facets must include the one omitting each "
                "anchor vertex"
            )
    space = quotient(delta(q), [_vertex_name(sorted(fc)) for fc in facets])
    top = space.cell(_vertex_name(range(q + 1)))  # every collapsed facet is proper

    def shift(path):
        u = path.word.index("V")  # the column the path crosses at
        return tuple(clamp(i - u + anchor, 0, q) for i in range(p + 2))

    simplex = _written_simplex(space, top, p, 1, shift)
    validate_hom_simplex(simplex)
    return space, simplex


def interval_component(f, u):
    """The simplex assigned to the path crossing at column u (height 1)."""
    if f.height != 1:
        raise ValueError("interval components need a height-1 simplex")
    return f.value(_turning_word(u, 1, f.width, 1))


def hom1_degeneracy_test(f, k):
    """Columnwise degeneracy criterion for interval mapping simplices.

    A width-p simplex of Hom(D^1, X) is the k-th degeneracy of some
    width-(p-1) simplex exactly when every component over a crossing at
    u <= k collapses at position k + 1 and every component over a crossing
    at u > k collapses at position k.  This is the n = 1 case of the rule
    behind ``hom.is_degenerate_hom`` (the path crossing at u steps across
    column k at k + 1 when u <= k, at k otherwise), written separately so
    the two can check each other; valid for every target.
    """
    if not isinstance(f, HomSimplex):
        raise TypeError("expected a mapping-space simplex")
    if f.width == 0:
        return False
    if not 0 <= k < f.width:
        raise ValueError("degeneracy position out of range")
    for u in range(f.width + 1):
        j = k + 1 if u <= k else k
        eps = interval_component(f, u).epi
        if eps(j) != eps(j + 1):
            return False
    return True


# ---------------------------------------------------------------------------
# The corpus.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """A named test space with its regularity flag where theory settles it.

    ``regular`` is True when the construction is regular by a closure
    argument (nerves; subcomplexes, products, unions and sums of regular
    sets), False when known irregular, and None when it must be computed.
    """

    name: str
    space: SimplicialSet
    regular: object = None
    note: str = ""


def _core_entries():
    d1, d2, d3 = delta(1), delta(2), delta(3)
    chain = nerve_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    vee = nerve_poset("abc", [("a", "b"), ("a", "c")])
    diamond = nerve_poset(
        "abcd",
        [
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
            ("a", "d"),
        ],
    )
    fence = nerve_poset("abcd", [("a", "b"), ("c", "b"), ("c", "d")])
    entries = [
        CorpusEntry("delta0", delta(0), True, "standard 0-simplex"),
        CorpusEntry("delta1", d1, True, "standard 1-simplex"),
        CorpusEntry("delta2", d2, True, "standard 2-simplex"),
        CorpusEntry("delta3", d3, True, "standard 3-simplex"),
        CorpusEntry("boundary2", boundary_delta(2), True, "triangle boundary"),
        CorpusEntry("boundary3", boundary_delta(3), True, "tetrahedron boundary"),
        CorpusEntry("horn21", horn(2, 1), True, "inner horn of the triangle"),
        CorpusEntry("horn31", horn(3, 1), True, "an inner horn of the tetrahedron"),
        CorpusEntry("nerve-chain", chain, True, "nerve of a 3-chain"),
        CorpusEntry("nerve-vee", vee, True, "nerve of a V-shaped poset"),
        CorpusEntry("nerve-diamond", diamond, True, "nerve of the diamond poset"),
        CorpusEntry("nerve-fence", fence, True, "nerve of a zigzag poset"),
        CorpusEntry("square", product(d1, d1), True, "product of two intervals"),
        CorpusEntry("prism", product(d1, d2), True, "interval times triangle"),
        CorpusEntry(
            "two-triangles",
            disjoint_sum(d2, d2),
            True,
            "disjoint sum of two triangles",
        ),
        CorpusEntry(
            "triangle/long-edge",
            quotient(d2, ["0,2"]),
            None,
            "triangle with the long edge collapsed",
        ),
        CorpusEntry(
            "tetra/long-edge",
            quotient(d3, ["0,3"]),
            None,
            "tetrahedron with the long edge collapsed",
        ),
        CorpusEntry(
            "tetra/boundary",
            quotient(d3, [c for c in d3.cells if c.dim == 2]),
            False,
            "tetrahedron with its whole boundary collapsed",
        ),
        CorpusEntry(
            "triangle/boundary",
            quotient(d2, [c for c in d2.cells if c.dim == 1]),
            False,
            "triangle with its whole boundary collapsed",
        ),
        CorpusEntry(
            "lurie-q3",
            lurie_family(4, 3, facets=[
                frozenset({0, 2, 3}),
                frozenset({0, 1, 3}),
                frozenset({0, 1, 2}),
                frozenset({1, 2, 3}),
            ])[0],
            False,
            "3-simplex with all facets collapsed",
        ),
        CorpusEntry(
            "lurie-q4",
            lurie_family(5, 4)[0],
            None,
            "4-simplex with the two anchor facets collapsed",
        ),
    ]
    return entries


def _random_poset(rng, size):
    names = "abcdefgh"[:size]
    rel = set()
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                rel.add((i, j))
    closed = transitive_closure(rel)
    return nerve_poset(names, [(names[i], names[j]) for (i, j) in sorted(closed)])


def _random_entry(rng, idx, size_budget):
    kind = rng.randrange(6)
    if kind == 0:
        space = _random_poset(rng, rng.randrange(3, 6))
        flag, note = True, "random poset nerve"
    elif kind == 1:
        base = delta(rng.randrange(2, 4))
        k = rng.randrange(1, 3)
        gens = rng.sample(list(base.cells), k)
        space = subcomplex(base, gens)
        flag, note = True, "random subcomplex of a standard simplex"
    elif kind == 2:
        base = delta(rng.randrange(2, 4))
        k = rng.randrange(1, 3)
        gens = rng.sample([c for c in base.cells if c.dim >= 1], k)
        space = quotient(base, gens)
        flag, note = None, "random quotient of a standard simplex"
    elif kind == 3:
        base = delta(3)
        left = subcomplex(base, rng.sample(list(base.cells), 2))
        right = subcomplex(base, rng.sample(list(base.cells), 2))
        space = union(left, right)
        flag, note = True, "random union of tetrahedron subcomplexes"
    elif kind == 4:
        small = [delta(1), delta(2), boundary_delta(2), horn(2, 1)]
        space = product(rng.choice(small), rng.choice(small))
        flag, note = True, "random product of small regular sets"
    else:
        small = [delta(0), delta(1), delta(2), boundary_delta(2), horn(2, 1)]
        space = disjoint_sum(rng.choice(small), rng.choice(small))
        flag, note = True, "random sum of small regular sets"
    if len(space.cells) > size_budget:
        return None
    return CorpusEntry("rnd%d:%s" % (idx, note.split()[1]), space, flag, note)


def corpus(seed=0, count=None, size_budget=60):
    """A reproducible list of test spaces.

    The first entries are fixed landmarks; the rest are drawn from a seeded
    generator (nerves of random posets, subcomplexes, quotients, unions,
    products, sums), each kept under ``size_budget`` nondegenerate cells.
    With ``count=None`` only the landmarks are returned.
    """
    entries = _core_entries()
    if count is None:
        return tuple(entries)
    if count < len(entries):
        return tuple(entries[:count])
    rng = random.Random(seed)
    idx = 0
    while len(entries) < count:
        entry = _random_entry(rng, idx, size_budget)
        idx += 1
        if entry is not None:
            entries.append(entry)
    return tuple(entries)
