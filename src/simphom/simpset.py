"""Finite simplicial sets presented by nondegenerate cells and face tables.

A finite simplicial set is stored the way one computes with it: as a list
of nondegenerate cells together with a *face table* that records, for every
cell ``c`` of dimension q >= 1 and every 0 <= i <= q, the normal form of
the i-th face of ``c``.  Normal forms are :class:`FormalSimplex` values: a
surjection applied to a nondegenerate cell.  Every simplex of the set is
such a pair, and the pair is unique; the contravariant action of an
arbitrary monotone map is computed by :meth:`SimplicialSet.apply_map`,
by epi-mono factorisation on value tuples: the injective part is pushed
through the face table one missing value at a time, re-factoring after
each entry, and only the normal form it returns is built as a map.  It
caches nothing and never reads the rule or the tables of
:meth:`SimplicialSet.face_table`: it is the library's independent slow
reference.
For searches, :meth:`SimplicialSet.act` gives the action of a monotone
map on positions in the lists of simplices, as one row per map, and
:meth:`SimplicialSet.face_table` holds the face maps' rows of one degree
densely.  Both read collapse values and the cell face table by one rule,
:meth:`SimplicialSet.normal_values`; neither goes through ``apply_map``.

All constructors validate the simplicial identities eagerly, so a
``SimplicialSet`` that exists is consistent.  The check works on
collapse values, by the rule :meth:`SimplicialSet.face_table` uses, so
construction never calls ``apply_map``.  It reads the faces of each
distinct face entry once, in a memo local to the check, which is not one
of the caches below.  Instances are immutable after
construction (internal caches aside) and safe for unsynchronised
concurrent reads.

Each instance owns five caches, touched only by this module and dropped
with it: ``_simplex_cache``, ``_face_tables``, ``_step_masks`` (the
repeat and degenerate-edge bitmasks of :meth:`SimplicialSet.step_masks`)
and ``_cell_offsets`` (the position of each cell's first simplex, one int
per cell) hold one entry per degree asked for, and ``_act_rows`` the row
of each map that :meth:`SimplicialSet.act` was asked for, a ``dict`` of
the entries read.  The maps and degrees in use bound them, but nothing
caps them.  Only :meth:`SimplicialSet.simplices` fills
``_simplex_cache``, for callers that read simplices: the tables of
:meth:`SimplicialSet.face_table`, :meth:`SimplicialSet.step_masks` and
:meth:`SimplicialSet.act` list none.

What depends only on a shape, a degree and a cell dimension, is kept in
four process-wide ``lru_cache`` tables shared by every instance: the
collapses of the shape in canonical order with their value tuples
(:func:`_collapses`), the rank of each (:func:`_collapse_ranks`), the
face plan of ``face_table`` (:func:`_face_plan`), and the repeat masks
with the edge masks for each mask of degenerate elementary edges
(:func:`_shape_masks`).  Each keeps at most ``_SHAPES`` = 64 shapes; one
pass of a benchmark workload takes at most 49 per table, so a pass evicts
none.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb

from .delta import (
    MonotoneMap,
    SurjectionWord,
    collapse_map,
    degeneracy_map,
    face_map,
    identity_map,
    surjection_from_repeats,
    surjection_to_word,
    word_to_surjection,
)


@dataclass(frozen=True, order=True)
class CellId:
    """Identifier of a nondegenerate cell: dimension plus a unique name."""

    dim: int
    name: str

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("cell dimension must be non-negative")
        if not self.name:
            raise ValueError("cell name must be non-empty")


@dataclass(frozen=True, order=True)
class FormalSimplex:
    """Normal form of a simplex: a surjection applied to a cell.

    ``FormalSimplex(epi, generator)`` denotes the simplex obtained by
    collapsing along ``epi`` and then sitting on the nondegenerate cell
    ``generator``; its degree is the source ordinal of ``epi``.
    """

    epi: MonotoneMap
    generator: CellId

    def __post_init__(self):
        if not self.epi.is_surjective:
            raise ValueError("normal forms require a surjective collapse part")
        if self.epi.target != self.generator.dim:
            raise ValueError(
                "collapse lands in [%d] but the generator has dimension %d"
                % (self.epi.target, self.generator.dim)
            )

    @property
    def degree(self):
        return self.epi.source

    @property
    def is_degenerate(self):
        return not self.epi.is_identity

    def token(self):
        """Compact unique string, used for derived cell names and dumps."""
        if self.epi.is_identity:
            return self.generator.name
        word = surjection_to_word(self.epi)
        return "s" + "s".join(str(i) for i in word.indices) + ":" + self.generator.name


def cell_simplex(cell):
    """The tautological nondegenerate simplex sitting on a cell."""
    return FormalSimplex(identity_map(cell.dim), cell)


class SimplicialSet:
    """A finite simplicial set with eagerly validated face structure."""

    def __init__(self, cells, faces):
        cells = tuple(sorted(cells))
        by_name = {}
        for c in cells:
            if c.name in by_name:
                raise ValueError("duplicate cell name %r" % (c.name,))
            by_name[c.name] = c
        table = {}
        for c in cells:
            entries = tuple(faces.get(c, ()))
            if c.dim == 0:
                if entries:
                    raise ValueError("vertex %r cannot have face entries" % (c.name,))
            else:
                if len(entries) != c.dim + 1:
                    raise ValueError(
                        "cell %r of dimension %d needs %d face entries, got %d"
                        % (c.name, c.dim, c.dim + 1, len(entries))
                    )
                for fs in entries:
                    if fs.degree != c.dim - 1:
                        raise ValueError("face of %r has wrong degree" % (c.name,))
                    if by_name.get(fs.generator.name) != fs.generator:
                        raise ValueError(
                            "face of %r references unknown cell %r"
                            % (c.name, fs.generator.name)
                        )
            table[c] = entries
        self._cells = cells
        self._by_name = by_name
        self._faces = table
        self._simplex_cache = {}
        self._face_tables = {}
        self._step_masks = {}
        self._cell_offsets = {}
        self._act_rows = {}
        self._check_simplicial_identities()

    # -- basic inspection ---------------------------------------------------

    @property
    def cells(self):
        return self._cells

    @property
    def faces(self):
        return self._faces

    def cell(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError("no cell named %r" % (name,)) from None

    def has_cell(self, name):
        return name in self._by_name

    def cells_of_dim(self, d):
        return tuple(c for c in self._cells if c.dim == d)

    @property
    def dim(self):
        """Largest cell dimension, or -1 for the empty simplicial set."""
        return max((c.dim for c in self._cells), default=-1)

    def __repr__(self):
        return "SimplicialSet(%d cells, dim %d)" % (len(self._cells), self.dim)

    # -- the contravariant action --------------------------------------------

    def apply_map(self, phi, x):
        """Act on the simplex ``x`` by the monotone map ``phi``.

        ``phi`` points INTO the degree of ``x``: for phi : [p] -> [q] and
        ``x`` of degree q the result has degree p.  The result is again a
        normal form, built once: the composite x.epi o phi is factored
        through its image on value tuples, the injective part is pushed
        through the cell's face entries one missing value at a time
        (largest first), factoring again after each entry, and the
        collapses compose back.  Only the returned ``MonotoneMap`` and
        ``FormalSimplex`` are constructed, each checked by its constructor.
        Nothing is cached, and neither :meth:`normal_values` nor the
        tables of :meth:`face_table` and :meth:`act` are read: this is the
        reference they are tested against.
        """
        if phi.target != x.degree:
            raise ValueError(
                "map into [%d] cannot act on a simplex of degree %d"
                % (phi.target, x.degree)
            )
        v = x.epi.values
        collapse, image = _factor_values(tuple(v[t] for t in phi.values))
        cell = x.generator
        while len(image) <= cell.dim:  # the injection misses some j
            j = cell.dim
            while j in image:
                j -= 1
            y = self._faces[cell][j]
            e = y.epi.values
            step, image = _factor_values(tuple(e[u if u < j else u - 1] for u in image))
            collapse = tuple(step[c] for c in collapse)
            cell = y.generator
        return FormalSimplex(MonotoneMap(phi.source, cell.dim, collapse), cell)

    def act(self, psi):
        """The action of ``psi`` on positions, as a row indexed by position.

        ``act(psi)[z]`` is the position in ``simplices(psi.source)`` of
        ``apply_map(psi, simplices(psi.target)[z])``.  It is read off
        collapse values and the cell face table by the rule of
        :meth:`face_table`, never through :meth:`apply_map`.  The row is a
        ``dict`` kept per map, holding only the entries read so far; a
        negative position or one past the end raises ``IndexError``.
        """
        row = self._act_rows.get(psi)
        if row is None:
            row = self._act_rows[psi] = _ActionRow(self, psi)
        return row

    def face(self, x, i):
        """The i-th face of a simplex (degree drops by one)."""
        return self.apply_map(face_map(i, x.degree), x)

    def degeneracy(self, x, k):
        """The k-th degeneracy of a simplex (degree rises by one)."""
        return self.apply_map(degeneracy_map(k, x.degree), x)

    def simplices(self, degree):
        """All simplices of a given degree, in the canonical order of
        :meth:`iter_simplices`, kept per degree.  The collapses of a shape
        (degree, cell dimension) come from the process-wide table
        :func:`_collapses`, shared by every cell of that dimension."""
        cached = self._simplex_cache.get(degree)
        if cached is None:
            cached = self._simplex_cache[degree] = tuple(
                FormalSimplex(epi, c)
                for c in self._cells
                if c.dim <= degree
                for epi in _collapses(degree, c.dim)[0]
            )
        return cached

    def iter_simplices(self, degree, cells=None):
        """Stream the simplices of a degree in canonical order, keeping none.

        The order is: generator cell (by dimension, then name), then the
        collapse word in ascending lexicographic order.  With ``cells``,
        only the simplices on those generators come, in the same order.
        Each collapse is built as it is read, so a stream that stops early
        builds no more, and no shape table is filled.
        """
        for c in self._cells:
            if c.dim > degree:  # cells come sorted by dimension
                break
            if cells is None or c in cells:
                for v in _collapse_values(degree, c.dim):
                    yield FormalSimplex(MonotoneMap(degree, c.dim, v), c)

    def face_table(self, degree):
        """The faces of every simplex of a degree >= 1, as integer positions.

        Entry ``[i][z]`` is ``act(face_map(i, degree))[z]``, the position of
        the i-th face of ``simplices(degree)[z]``, held in one dense tuple
        per i.  It is read off the collapse values v and the cell's face
        table: dropping position i leaves the same cell when v[i] is
        repeated on either side, and otherwise lands on the cell's v[i]-th
        face entry, pulled back along the shifted tuple.  Which of the two,
        and the rank of the values left, depend only on the shape (degree,
        cell dimension), in :func:`_face_plan`; the target adds each
        cell's offset in ``simplices(degree - 1)`` and its face entries.
        No simplex is listed.
        """
        table = self._face_tables.get(degree)
        if table is None:
            if degree < 1:
                raise ValueError("simplices of degree %d have no faces" % (degree,))
            offsets = self._offsets(degree - 1)
            columns = [[] for _ in range(degree + 1)]
            for c in self._cells:
                if c.dim > degree:  # cells come sorted by dimension
                    break
                # targets[0] reads a face on c, targets[j + 1] one moved onto
                # the j-th face entry, by the rank of the values left
                here = offsets.get(c.name)
                targets = [() if here is None else range(here, here + comb(degree - 1, c.dim))]
                for y in self._faces[c]:
                    start = offsets[y.generator.name]
                    if y.epi.is_identity:
                        targets.append(range(start, start + comb(degree - 1, c.dim - 1)))
                    else:
                        e, ranks = y.epi.values, _collapse_ranks(degree - 1, y.generator.dim)
                        targets.append([
                            start + ranks[tuple([e[u] for u in w])]
                            for w in _collapses(degree - 1, c.dim - 1)[1]
                        ])
                for column, plan in zip(columns, _face_plan(degree, c.dim)):
                    column += [targets[k][r] for k, r in plan]
            table = self._face_tables[degree] = tuple(map(tuple, columns))
        return table

    def step_masks(self, degree):
        """The elementary edges of every simplex of a degree, as bitmasks.

        Returns ``(repeats, edges)``, two tuples indexed by position in
        ``simplices(degree)``.  Bit s of ``repeats[z]`` is set when the
        collapse values v of the z-th simplex repeat at s, v[s] == v[s + 1];
        bit s of ``edges[z]`` when its edge (s, s + 1) is degenerate: v
        repeats at s, or the cell's elementary edge (v[s], v[s] + 1) is
        degenerate by :meth:`normal_values`.  The masks of a cell are those
        of its shape, :func:`_shape_masks`, read for its degenerate
        elementary edges.  Kept per degree; no simplex is listed.
        """
        masks = self._step_masks.get(degree)
        if masks is None:
            repeats, edges = [], []
            for c in self._cells:
                if c.dim > degree:  # cells come sorted by dimension
                    break
                bad = sum(
                    1 << a for a in range(c.dim) if self.normal_values(c, (a, a + 1))[0].dim == 0
                )
                repeats += _shape_masks(degree, c.dim)[0]
                edges += _edge_masks(degree, c.dim, bad)
            masks = self._step_masks[degree] = (tuple(repeats), tuple(edges))
        return masks

    def _offsets(self, degree):
        # cell name -> position of the cell's first simplex in
        # simplices(degree), in cell order: one int per cell
        offsets = self._cell_offsets.get(degree)
        if offsets is None:
            offsets, k = {}, 0
            for c in self._cells:
                if c.dim > degree:
                    break
                offsets[c.name] = k
                k += comb(degree, c.dim)
            self._cell_offsets[degree] = offsets
        return offsets

    def normal_values(self, cell, w):
        """The normal form (generator, collapse values) of the simplex with
        weakly increasing values w on ``cell``: while w misses some value of
        [0, dim cell], the largest missing j is dropped, moving w onto the
        cell's j-th face entry.  This is :meth:`face_table`'s rule for any
        monotone tuple, and never goes through :meth:`apply_map`."""
        while True:
            image = set(w)
            if len(image) == cell.dim + 1:
                return cell, w
            j = cell.dim
            while j in image:
                j -= 1
            cell, w = self._drop_value(cell, w, j)

    def _drop_value(self, cell, w, j):
        # Values w on ``cell`` that miss j, moved onto the cell's j-th face
        # entry: pulled back along the shifted tuple.
        y = self._faces[cell][j]
        e = y.epi.values
        return y.generator, tuple(e[u if u < j else u - 1] for u in w)

    # -- validation -----------------------------------------------------------

    def _face_values(self, cell, v, i):
        # The i-th face of the simplex with collapse values v on ``cell``, as
        # a (generator, values) pair, by the rule face_table documents.
        w = v[:i] + v[i + 1:]
        j = v[i]
        if (i and v[i - 1] == j) or (i + 1 < len(v) and v[i + 1] == j):
            return cell, w
        return self._drop_value(cell, w, j)

    def _check_simplicial_identities(self):
        # d_i d_j = d_{j-1} d_i on every cell, on (generator, values) pairs,
        # so construction never goes through apply_map.  By the rule of
        # _face_values, the k-th face of a cell is its k-th entry.
        faces_of = {}
        for c in self._cells:
            if c.dim < 2:
                continue
            second = []
            for y in self._faces[c]:
                g, w = y.generator, y.epi.values
                faces = faces_of.get((g.name, w))
                if faces is None:
                    faces = [self._face_values(g, w, i) for i in range(len(w))]
                    faces_of[g.name, w] = faces
                second.append(faces)
            for j in range(1, c.dim + 1):
                for i in range(j):
                    if second[j][i] != second[i][j - 1]:
                        raise ValueError(
                            "face identities fail on %r at (i=%d, j=%d)" % (c.name, i, j)
                        )


class _ActionRow(dict):
    """The row of :meth:`SimplicialSet.act`, each entry made on first read.

    A position z of ``simplices(psi.target)`` is decoded by the cell
    offsets into a cell and the rank of its collapse values, which the
    shape table :func:`_collapses` holds; the image is encoded the same
    way in degree ``psi.source``.
    """

    __slots__ = ("space", "psi", "cells", "starts", "end", "offsets")

    def __init__(self, space, psi):
        self.space, self.psi = space, psi
        self.starts = list(space._offsets(psi.target).values())
        self.cells = space.cells[:len(self.starts)]
        self.end = _simplex_count(space, psi.target)
        self.offsets = space._offsets(psi.source)

    def __missing__(self, z):
        if not 0 <= z < self.end:
            raise IndexError("simplex position %d is out of range" % (z,))
        psi, k = self.psi, bisect_right(self.starts, z) - 1
        cell = self.cells[k]
        v = _collapses(psi.target, cell.dim)[1][z - self.starts[k]]
        cell, w = self.space.normal_values(cell, tuple([v[t] for t in psi.values]))
        k = self[z] = self.offsets[cell.name] + _collapse_ranks(psi.source, cell.dim)[w]
        return k


def _positions(space, degree, simplices):
    """The positions of the given simplices in ``space.simplices(degree)``;
    ``KeyError`` when one is not among them."""
    offsets = space._offsets(degree)
    return tuple(
        offsets[x.generator.name]
        + _collapse_ranks(degree, space.cell(x.generator.name).dim)[x.epi.values]
        for x in simplices
    )


def _simplex_count(space, degree):
    """``len(space.simplices(degree))``, without listing them."""
    return sum(comb(degree, c.dim) for c in space.cells if c.dim <= degree)


def _factor_values(values):
    """The epi-mono factorisation of a weakly increasing tuple, as tuples:
    the rank of each value in the image, and the image in ascending order."""
    image = sorted(set(values))
    rank = {u: k for k, u in enumerate(image)}
    return tuple(rank[u] for u in values), tuple(image)


# ---------------------------------------------------------------------------
# Shape tables: what depends only on a degree and a cell dimension.
# ---------------------------------------------------------------------------

_SHAPES = 64  # entries each shape table keeps: a benchmark pass takes at most 49


def _collapse_values(degree, dim):
    """Stream the value tuples of the collapses [degree] ->> [dim] in the
    order of :meth:`SimplicialSet.iter_simplices`, ascending in their
    repeat positions."""
    for repeats in combinations(range(degree), degree - dim):
        climbs = [1] * degree
        for s in repeats:
            climbs[s] = 0
        yield tuple(accumulate(climbs, initial=0))


@lru_cache(maxsize=_SHAPES)
def _collapses(degree, dim):
    """The collapses of :func:`_collapse_values`, kept as
    ``(maps, value tuples)``."""
    values = tuple(_collapse_values(degree, dim))
    return tuple(MonotoneMap(degree, dim, v) for v in values), values


@lru_cache(maxsize=_SHAPES)
def _collapse_ranks(degree, dim):
    """The rank of each value tuple in :func:`_collapses` ``(degree, dim)``."""
    return {v: r for r, v in enumerate(_collapses(degree, dim)[1])}


@lru_cache(maxsize=_SHAPES)
def _face_plan(degree, dim):
    """The faces of the collapses of a shape, by the rule of
    :meth:`SimplicialSet.face_table`: entry ``[i][r]`` is ``(0, rank)``
    when the i-th face of the r-th collapse v stays on the cell, the rank
    of its values among the collapses [degree - 1] ->> [dim], and
    ``(j + 1, rank)`` when it moves onto the cell's j-th face entry, j =
    v[i], the rank of its values shifted down past j among the collapses
    [degree - 1] ->> [dim - 1]."""
    same = _collapse_ranks(degree - 1, dim) if dim < degree else {}
    moved = _collapse_ranks(degree - 1, dim - 1) if dim else {}
    plan = []
    for i in range(degree + 1):
        column = []
        for v in _collapses(degree, dim)[1]:
            w, j = v[:i] + v[i + 1:], v[i]
            if (i and v[i - 1] == j) or (i < degree and v[i + 1] == j):
                column.append((0, same[w]))
            else:
                column.append((j + 1, moved[tuple([u if u < j else u - 1 for u in w])]))
        plan.append(tuple(column))
    return tuple(plan)


@lru_cache(maxsize=_SHAPES)
def _shape_masks(degree, dim):
    """The repeat masks of :meth:`SimplicialSet.step_masks` for the
    collapses of a shape, and a ``dict`` of their edge masks by the mask of
    the cell's degenerate elementary edges, filled by :func:`_edge_masks`."""
    repeats = tuple(
        sum(1 << s for s in range(degree) if v[s] == v[s + 1]) for v in _collapses(degree, dim)[1]
    )
    return repeats, {0: repeats}


def _edge_masks(degree, dim, bad):
    """The edge masks of the collapses of a shape on a cell whose elementary
    edge (a, a + 1) is degenerate exactly when bit a of ``bad`` is set:
    bit s is set when v repeats at s or climbs a degenerate edge there.
    Two threads that fill one entry at once store equal tuples."""
    repeats, edges = _shape_masks(degree, dim)
    masks = edges.get(bad)
    if masks is None:
        masks = edges[bad] = tuple(
            r | sum(1 << s for s in range(degree) if v[s] != v[s + 1] and bad >> v[s] & 1)
            for r, v in zip(repeats, _collapses(degree, dim)[1])
        )
    return masks


# ---------------------------------------------------------------------------
# Constructors.
# ---------------------------------------------------------------------------

def _vertex_tuple(name):
    return tuple(int(t) for t in name.split(","))


def _vertex_name(vertices):
    return ",".join(str(v) for v in vertices)


def delta(n):
    """The standard n-simplex: cells are the nonempty vertex subsets."""
    if n < 0:
        raise ValueError("delta(n) needs n >= 0")
    cells = []
    faces = {}
    for size in range(1, n + 2):
        for vs in combinations(range(n + 1), size):
            c = CellId(size - 1, _vertex_name(vs))
            cells.append(c)
            if size > 1:
                faces[c] = tuple(
                    cell_simplex(CellId(size - 2, _vertex_name(vs[:i] + vs[i + 1:])))
                    for i in range(size)
                )
    return SimplicialSet(cells, faces)


def _face_closure(ambient, generators):
    """The set of cells of ``ambient`` that the given cells generate.

    ``generators`` may contain cell names or CellId values; an unknown
    name raises ``KeyError``.
    """
    todo = [ambient.cell(g if isinstance(g, str) else g.name) for g in generators]
    keep = set()
    while todo:
        c = todo.pop()
        if c in keep:
            continue
        keep.add(c)
        todo.extend(fs.generator for fs in ambient.faces[c])
    return keep


def subcomplex(ambient, generators):
    """The smallest face-closed collection containing the given cells.

    ``generators`` may contain cell names or CellId values of ``ambient``.
    """
    keep = _face_closure(ambient, generators)
    return SimplicialSet(keep, {c: ambient.faces[c] for c in keep})


def boundary_delta(n):
    """The boundary of the n-simplex (empty for n = 0)."""
    if n < 0:
        raise ValueError("boundary_delta(n) needs n >= 0")
    full = delta(n)
    gens = [c for c in full.cells if c.dim == n - 1]
    return subcomplex(full, gens)


def horn(n, k):
    """The k-th horn of the n-simplex: the boundary minus its k-th facet."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("horn(%d, %d) is out of range" % (n, k))
    full = delta(n)
    top = tuple(range(n + 1))
    omitted = _vertex_name(top[:k] + top[k + 1:])
    gens = [c for c in full.cells if c.dim == n - 1 and c.name != omitted]
    return subcomplex(full, gens)


def union(a, b):
    """Union of two subcomplexes of one ambient simplicial set.

    Compatibility is checked structurally: cells with the same name must
    agree in dimension and face data, otherwise the arguments did not come
    from one ambient set.
    """
    cells = dict((c.name, c) for c in a.cells)
    faces = {c: a.faces[c] for c in a.cells}
    for c in b.cells:
        if c.name in cells:
            if cells[c.name] != c or faces[cells[c.name]] != b.faces[c]:
                raise ValueError(
                    "cell %r disagrees between the union arguments; "
                    "the sets do not share an ambient complex" % (c.name,)
                )
        else:
            cells[c.name] = c
            faces[c] = b.faces[c]
    return SimplicialSet(cells.values(), faces)


def disjoint_sum(a, b):
    """Disjoint union, with cells renamed inl:/inr: to keep names unique."""

    def relabel(space, prefix):
        mapping = {c: CellId(c.dim, prefix + c.name) for c in space.cells}
        faces = {}
        for c in space.cells:
            faces[mapping[c]] = tuple(
                FormalSimplex(fs.epi, mapping[fs.generator]) for fs in space.faces[c]
            )
        return list(mapping.values()), faces

    ca, fa = relabel(a, "inl:")
    cb, fb = relabel(b, "inr:")
    fa.update(fb)
    return SimplicialSet(ca + cb, fa)


def quotient(space, collapse_generators):
    """Collapse the subcomplex generated by the given cells to one vertex.

    The collapsed subcomplex must be nonempty.  Cells outside it keep their
    names; face entries that used to land in the subcomplex become totally
    degenerate simplices on the fresh vertex, named ``*`` (or ``*1``,
    ``*2``, ... if that name is taken).
    """
    doomed = _face_closure(space, collapse_generators)
    if not doomed:
        raise ValueError("cannot collapse an empty subcomplex")
    kept = [c for c in space.cells if c not in doomed]
    name = "*"
    suffix = 0
    taken = {c.name for c in kept}
    while name in taken:
        suffix += 1
        name = "*%d" % (suffix,)
    star = CellId(0, name)
    cells = kept + [star]
    faces = {}
    for c in kept:
        if c.dim == 0:
            continue
        entries = []
        for fs in space.faces[c]:
            if fs.generator in doomed:
                entries.append(FormalSimplex(collapse_map(c.dim - 1), star))
            else:
                entries.append(fs)
        faces[c] = tuple(entries)
    return SimplicialSet(cells, faces)


def _factor_through(f, gamma):
    """Return g with f == g o gamma, given that f is constant on the fibres."""
    out = [None] * (gamma.target + 1)
    for t, k in enumerate(gamma.values):
        if out[k] is None:
            out[k] = f.values[t]
        elif out[k] != f.values[t]:
            raise ValueError("map does not factor through the collapse")
    return MonotoneMap(gamma.target, f.target, tuple(out))


def _pair_name(fx, fy):
    return "(" + fx.token() + "|" + fy.token() + ")"


def product(a, b):
    """The levelwise product, presented by jointly nondegenerate pairs.

    A nondegenerate r-cell is a pair of collapses (one of a cell of each
    factor) whose repeat positions are disjoint; faces are computed in each
    factor through the slow route :meth:`SimplicialSet.face`, memoised for
    the call, and then re-normalised jointly.
    """
    cells = {}
    pair_of = {}
    for x in a.cells:
        for y in b.cells:
            for r in range(max(x.dim, y.dim), x.dim + y.dim + 1):
                for ra in combinations(range(r), r - x.dim):
                    rest = [i for i in range(r) if i not in ra]
                    for rb in combinations(rest, r - y.dim):
                        fx = FormalSimplex(surjection_from_repeats(r, ra), x)
                        fy = FormalSimplex(surjection_from_repeats(r, rb), y)
                        c = CellId(r, _pair_name(fx, fy))
                        cells[c] = (fx, fy)
                        pair_of[(fx, fy)] = c
    faces = {}
    factor_face = lru_cache(maxsize=None)(lambda space, x, i: space.face(x, i))
    for c, (fx, fy) in cells.items():
        if c.dim == 0:
            continue
        entries = []
        for i in range(c.dim + 1):
            u = factor_face(a, fx, i)
            v = factor_face(b, fy, i)
            common = set(u.epi.repeat_positions()) & set(v.epi.repeat_positions())
            gamma = surjection_from_repeats(c.dim - 1, common)
            core = (
                FormalSimplex(_factor_through(u.epi, gamma), u.generator),
                FormalSimplex(_factor_through(v.epi, gamma), v.generator),
            )
            entries.append(FormalSimplex(gamma, pair_of[core]))
        faces[c] = tuple(entries)
    return SimplicialSet(cells.keys(), faces)


def transitive_closure(pairs):
    """The smallest transitive relation containing the given pairs, as a
    set: (x, z) for each z that a walk of one or more pairs reaches from x."""
    after = {}
    for x, y in pairs:
        after.setdefault(x, set()).add(y)
    rel = set()
    for x, successors in after.items():
        todo, reached = list(successors), set()
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                todo.extend(after.get(y, ()))
        rel.update((x, y) for y in reached)
    return rel


def nerve_poset(carrier, strictly_below):
    """The nerve of a finite poset: cells are the strictly increasing chains.

    ``strictly_below`` lists the pairs (x, y) with x < y and must be the
    full strict order: irreflexive, antisymmetric and transitive, otherwise
    the construction is rejected.
    """
    elements = list(carrier)
    names = [str(e) for e in elements]
    if len(set(names)) != len(names):
        raise ValueError("poset elements must have distinct printable names")
    for nm in names:
        if "<" in nm:
            raise ValueError("poset element name %r may not contain '<'" % (nm,))
    rel = set()
    index = {e: i for i, e in enumerate(elements)}
    for x, y in strictly_below:
        if x not in index or y not in index:
            raise ValueError("relation mentions an element outside the carrier")
        if x == y:
            raise ValueError("strict order cannot relate %r to itself" % (x,))
        rel.add((index[x], index[y]))
    for (x, y) in rel:
        if (y, x) in rel:
            raise ValueError("relation is not antisymmetric on %r, %r" % (elements[x], elements[y]))
    for (x, y) in rel:
        for (y2, z) in rel:
            if y2 == y and (x, z) not in rel:
                raise ValueError(
                    "relation is not transitive: %r < %r < %r but the outer pair is missing"
                    % (elements[x], elements[y], elements[z])
                )
    chains = []
    todo = [(i,) for i in range(len(elements))]
    while todo:
        chain = todo.pop()
        chains.append(chain)
        todo.extend(chain + (j,) for j in range(len(elements)) if (chain[-1], j) in rel)
    cells = {}
    faces = {}
    for chain in chains:
        c = CellId(len(chain) - 1, "<".join(names[i] for i in chain))
        cells[chain] = c
    for chain, c in cells.items():
        if len(chain) > 1:
            faces[c] = tuple(
                cell_simplex(cells[chain[:i] + chain[i + 1:]])
                for i in range(len(chain))
            )
    return SimplicialSet(cells.values(), faces)


# ---------------------------------------------------------------------------
# Serialisation.
# ---------------------------------------------------------------------------

def to_json_dict(space):
    """Serialise to plain data: cells plus face entries as (word, generator)."""
    return {
        "cells": [{"id": c.name, "dim": c.dim} for c in space.cells],
        "faces": {
            c.name: [
                [list(surjection_to_word(fs.epi).indices), fs.generator.name]
                for fs in space.faces[c]
            ]
            for c in space.cells
            if c.dim >= 1
        },
    }


def from_json_dict(data):
    """Rebuild a simplicial set from :func:`to_json_dict` output."""
    cells = {entry["id"]: CellId(entry["dim"], entry["id"]) for entry in data["cells"]}
    faces = {}
    for name, entries in data.get("faces", {}).items():
        c = cells[name]
        built = []
        for word, gen in entries:
            epi = word_to_surjection(SurjectionWord(c.dim - 1, tuple(word)))
            built.append(FormalSimplex(epi, cells[gen]))
        faces[c] = tuple(built)
    return SimplicialSet(cells.values(), faces)


# ---------------------------------------------------------------------------
# Backtracking, and isomorphism testing (used mainly by the test-suite).
# ---------------------------------------------------------------------------

_CHUNK = 256  # the most prefixes one call of ``extend`` receives


def _backtrack(size, extend):
    """Yield every tuple of ``size`` slots that ``extend`` can fill.

    ``extend(m, prefixes)`` takes a list of tuples of length m, the
    settings of slots 0 .. m - 1, in depth-first order, and returns their
    one-slot extensions as one list: the extensions of each prefix
    together, in candidate order, and the prefixes in the order given.
    The search extends a chunk of at most ``_CHUNK`` prefixes per step:
    its explicit stack holds ``(m, chunk)`` pairs, and the chunks of each
    grown list are pushed last first, so results come in depth-first
    candidate order and the depth is never bounded by the interpreter's
    recursion limit.  A chunk is extended in full before any of its
    extensions is, so the first result may cost up to a chunk per slot.
    """
    if size == 0:
        yield ()
        return
    stack = [(0, [()])]
    while stack:
        m, chunk = stack.pop()
        grown = extend(m, chunk)
        m += 1
        if m == size:
            yield from grown
        else:
            stack.extend(
                (m, grown[i:i + _CHUNK]) for i in reversed(range(0, len(grown), _CHUNK))
            )


def is_isomorphic(a, b):
    """Decide isomorphism by dimension-wise backtracking on cells.

    The cells of ``a`` are matched in (dimension, name) order, so the faces
    of a cell are matched before the cell; a cell's candidates are the
    unused cells of ``b`` whose face entries are the images of its own.
    """
    dims = [c.dim for c in a.cells]  # cells are sorted by (dim, name)
    if dims != [c.dim for c in b.cells]:
        return False
    position = {x: k for k, x in enumerate(a.cells)}
    by_faces = {}  # a face tuple also fixes the dimension of its cell
    for y in b.cells:
        key = tuple((fs.epi, fs.generator) for fs in b.faces[y])
        by_faces.setdefault(key, []).append(y)

    def pool(k, assign):
        x = a.cells[k]
        want = tuple((fs.epi, assign[position[fs.generator]]) for fs in a.faces[x])
        taken = assign[dims.index(x.dim):k]
        return [y for y in by_faces.get(want, ()) if y not in taken]

    def extend(k, prefixes):
        return [assign + (y,) for assign in prefixes for y in pool(k, assign)]

    return next(_backtrack(len(dims), extend), None) is not None
