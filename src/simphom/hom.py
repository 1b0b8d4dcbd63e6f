"""Simplicial mapping spaces encoded by lattice-path assignments.

A p-simplex of the mapping space Hom(D^n, X) is a simplicial map from the
product of a standard p-simplex and a standard n-simplex into X.  Such a
map is stored by what it does to the maximal chains of the (p, n) grid:
one simplex of X of degree p + n for every lattice path, subject to the
unit-square compatibility condition that two paths differing in a single
interior point have equal faces at that point's index.

On top of the encoding this module provides:

* exhaustive enumeration of the p-simplices for a finite target, by one
  search on integer positions through ``simpset._backtrack``, which
  extends a chunk of prefixes by one slot per step, on an explicit stack
  that grows no recursion with the number of paths.  A
  candidate is a position in the target's list of (p + n)-simplices,
  every constraint compares two positions after acting, each through
  one of the target's action rows, read for a whole chunk in one list
  comprehension per check.  Each result is one :class:`HomSimplex` made
  by :func:`_hom_at` straight from the search's tuple of positions,
  unchecked, and builds its target simplices only when ``values`` is
  first read; the public constructor takes values and checks them.
  Pruned at the first fully degenerate column over a regular target and
  filtered otherwise, it streams the nondegenerate results of every scan
  and :func:`hom_complex`;
* the simplicial structure (faces, degeneracies, reindexing along any
  monotone map, in both grid directions), each reindex following a plan
  worked out once per shape: for every small path, the index of its
  lifted path and the step map to pull back along.  Reindexing works on
  positions too: each value is the target's
  :meth:`~simphom.simpset.SimplicialSet.act` by a step map on a position.
  :func:`hom_complex` builds its face entries the same way, reading the
  face plans of a degree once and normalising each distinct face once;
  :func:`hom_face` and :func:`normalize_hom` are the slow route it is
  tested against;
* degeneracy detection, both the generic test read off collapse values
  (f is the k-th degeneracy of some simplex exactly when, on every path,
  the collapse of its value repeats at the path's step across column k;
  no reindex) and the cheap column test (all horizontal edges over one
  column degenerate), which agree exactly over regular targets.  Both
  are bit operations on the target's per-degree
  :meth:`~simphom.simpset.SimplicialSet.step_masks`, read by position;
* the witness of a degenerate column k, which is the k-th face of f once
  every path's collapse repeats at its step across the column, failing
  loudly on irregular targets;
* dimension computation: over a regular target dim Hom(D^n, X) is
  (n + 1) * dim X, certified by the staircase in any top cell, and
  otherwise the degree scan both drivers share gives a capped lower bound;
* mapping spaces out of an arbitrary finite source, as compatible
  families over its cells: the same search fills the paths of the
  maximal cells, each face entry of the source equating pairs of paths,
  and the other values are reindexed along routes.  Their dimension is
  one loop over the connected pieces of the source, read in place: over
  a regular target a piece whose vertex digraph has no directed cycle (a
  standard simplex however written, a nerve) answers the vertex bound
  |U_0| * dim X at once, any other piece is scanned down from that
  bound, and the answers add.

Computing Hom(U, X) keeps no state of its own on X.  Every memo of a
search (candidate buckets, a family stream's derived values) is a local
of the call that fills it.  Only the reindex plans, the turning paths'
indexes and the paths' runs of horizontal steps outlive a call, in one
process-wide ``lru_cache`` entry per grid shape, as do the ``lru_cache``
tables of ``paths`` and ``delta``.  The action rows and step masks, read
through :meth:`~simphom.simpset.SimplicialSet.act`, ``face_table`` and
``step_masks``, belong to the target and are documented in ``simpset``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, repeat
from math import comb

from .delta import (
    MonotoneMap,
    compose_monotone,
    degeneracy_map,
    edge_map,
    face_map,
    identity_map,
    surjection_from_repeats,
)
from .paths import LatticePath, all_paths, flip_constraints, path_index
from .regularity import is_regular
from .simpset import (
    CellId,
    FormalSimplex,
    SimplicialSet,
    _backtrack,
    _face_closure,
    _positions,
    _simplex_count,
    cell_simplex,
    transitive_closure,
)


class RegularityViolation(Exception):
    """Raised when a witness construction meets an irregular target.

    Carries the normal-form simplex that refused to split off the expected
    degeneracy.
    """

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender


class HomSimplex:
    """A p-simplex of Hom(D^height, X): one target simplex per lattice path.

    ``values`` is aligned with ``all_paths(width, height)``, and
    ``positions`` holds the same simplices as positions in
    ``space.simplices(width + height)``.  The public constructor takes
    values and checks them: a negative width or height, a value count
    other than the number of paths, a value that is not a
    :class:`~simphom.simpset.FormalSimplex` of degree width + height or
    is not a simplex of the target raises ``ValueError``.  The search and
    the reindexes build through :func:`_hom_at` from positions they
    trust, and the values are built from the positions on first read.
    Equality and hash read ``(space, width, height, positions)``, which
    is equivalent to comparing values.
    """

    __slots__ = ("space", "width", "height", "positions", "_values")

    def __init__(self, space, width, height, values):
        values = tuple(values)
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative, got %d, %d" % (width, height))
        degree = width + height
        if len(values) != comb(degree, height):
            raise ValueError(
                "a (%d, %d) grid has %d paths, got %d values"
                % (width, height, comb(degree, height), len(values))
            )
        if not all(isinstance(x, FormalSimplex) and x.degree == degree for x in values):
            raise ValueError("every value must be a simplex of degree %d" % (degree,))
        try:
            self.positions = _positions(space, degree, values)
        except KeyError:
            raise ValueError(
                "the values are not all simplices of degree %d of the target" % (degree,)
            ) from None
        self.space = space
        self.width = width
        self.height = height
        self._values = values

    @property
    def values(self):
        try:
            return self._values
        except AttributeError:  # built from positions, not yet read
            simplices = self.space.simplices(self.width + self.height)
            self._values = tuple(simplices[z] for z in self.positions)
            return self._values

    def __eq__(self, other):
        if not isinstance(other, HomSimplex):
            return NotImplemented
        return (
            self.space is other.space
            and self.width == other.width
            and self.height == other.height
            and self.positions == other.positions
        )

    def __hash__(self):
        return hash((self.space, self.width, self.height, self.positions))

    def value(self, path):
        word = path.word if isinstance(path, LatticePath) else path
        return self.values[path_index(self.width, self.height)[word]]

    def assignment(self):
        return {p: v for p, v in zip(all_paths(self.width, self.height), self.values)}

    def __repr__(self):
        return "HomSimplex(p=%d, n=%d over %r)" % (self.width, self.height, self.space)


def _hom_at(space, width, height, positions):
    """The :class:`HomSimplex` at a tuple of positions in
    ``space.simplices(width + height)``, unchecked; its values are built
    on first read."""
    f = object.__new__(HomSimplex)
    f.space, f.width, f.height, f.positions = space, width, height, positions
    return f


def hom_simplex(space, width, height, assignment):
    """Build a HomSimplex from a path -> simplex mapping and check it."""
    lookup = {}
    for key, fs in assignment.items():
        word = key.word if isinstance(key, LatticePath) else key
        lookup[word] = fs
    paths = all_paths(width, height)
    if set(lookup) != {p.word for p in paths}:
        raise ValueError("assignment must cover every maximal path exactly once")
    f = HomSimplex(space, width, height, [lookup[p.word] for p in paths])
    validate_hom_simplex(f)
    return f


def validate_hom_simplex(f):
    """Re-run the unit-square compatibility checks on an existing simplex."""
    for m, lk in enumerate(flip_constraints(f.width, f.height)):
        for m_prev, idx in lk:
            if f.space.face(f.values[m], idx) != f.space.face(f.values[m_prev], idx):
                raise ValueError(
                    "incompatible assignment: paths %d and %d disagree at face %d"
                    % (m, m_prev, idx)
                )
    return True


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------

def _search(space, p, dims, sides=(), seats=()):
    """The one backtracking search of this module, on integer positions.

    Its slots are the pairs (cell k, path m of the (p, dims[k]) grid), in
    cell and ``all_paths`` order; a candidate is a position in
    ``space.simplices(p + dims[k])``.  Results are the slots' positions in
    lexicographic candidate order.

    Every constraint is one check ``(a, r, mine)`` of a later slot: its
    candidate z passes when ``mine[z] == r[x[a]]`` for the prefix x of
    slots set so far.  A unit-square
    flip at the point i between two paths of one cell reads the row
    ``face_table(p + d)[i]`` on both sides.  A side ``(k, here, k',
    there)`` of :func:`_family_layout` pairs the reindex plans of here and
    there in degree p: the slot (k, m) read through ``act(psi)`` equals
    the slot (k', m') read through ``act(phi)``.  A pair with equal ends
    is dropped, and one that reads a single slot twice narrows that
    slot's candidates once.

    The search extends a chunk of prefixes per step (``simpset._backtrack``),
    each check one list comprehension over the chunk.  A slot's first check
    picks one bucket of candidates per prefix, which keeps the scan near
    output-linear; buckets keep candidate order and are shared by slots
    with one candidate list and row.  The second check filters the
    bucket as it is read, and the others filter the (prefix, candidate)
    pairs left.  A prefix is copied only for the pairs that pass every
    check and the seats below.

    ``seats`` places each vertex of the source as the vertex j of a cell
    k, over a regular target: a branch dies once, at some column c, every
    vertex's edge is read and degenerate.  At its seat that edge is the
    step c + j of a turning path, and the edge (s, s + 1) of (epi, x) is
    degenerate exactly when epi repeats at s, bit s of the target's
    repeat mask (``step_masks``); :func:`dim_hom_general` proves it.  The
    pairs whose every read edge is degenerate are found by one filter per
    read and dropped by identity.
    """
    offsets = _cell_slots(p, dims)
    candidates = {d: range(_simplex_count(space, p + d)) for d in dims}
    slots = [candidates[d] for d in dims for _ in all_paths(p, d)]
    checks = [[] for _ in slots]
    for k, d in enumerate(dims):
        # a grid with one row or column has a single path: no face is read
        faces = space.face_table(p + d) if p and d else ()
        for m, links in enumerate(flip_constraints(p, d)):
            checks[offsets[k] + m] = [(offsets[k] + a, faces[i], faces[i]) for a, i in links]
    ident = identity_map(p)
    for k, here, kk, there in sides:
        for (m, psi), (mm, phi) in zip(_reindex_plan(ident, here), _reindex_plan(ident, there)):
            a, b = offsets[k] + m, offsets[kk] + mm
            if a > b:
                a, psi, b, phi = b, phi, a, psi
            if a != b:
                checks[b].append((a, space.act(psi), space.act(phi)))
            elif psi != phi:
                r, mine = space.act(psi), space.act(phi)
                slots[b] = [z for z in slots[b] if r[z] == mine[z]]
    triggers = {}
    if seats and p:
        repeats = {d: space.step_masks(p + d)[0] for d in dims}
        for c in range(p):
            reads = [
                (offsets[k] + _turning_paths(p, dims[k])[c][j], repeats[dims[k]], 1 << c + j)
                for k, j in seats
            ]
            triggers.setdefault(max(a for a, _, _ in reads), []).append(reads)
    shelves = {}  # (candidates, row) -> [their buckets, once built]
    for s, listed in enumerate(checks):
        first = None
        if listed:
            a, r, mine = listed[0]
            first = (a, r, mine, shelves.setdefault((id(slots[s]), id(mine)), [None]))
        slots[s] = (slots[s], first, listed[1:], triggers.get(s, ()))

    def extend(s, prefixes):
        candidates, first, rest, dooms = slots[s]
        if first is None:
            if not dooms:
                return [x + (z,) for x in prefixes for z in candidates]
            pairs = [(x, z) for x in prefixes for z in candidates]
        else:
            a, r, mine, shelf = first
            table = shelf[0]
            if table is None:
                table = shelf[0] = {}
                for z in candidates:
                    table.setdefault(mine[z], []).append(z)
            hits = table.get
            if not rest:
                if not dooms:
                    return [x + (z,) for x in prefixes for z in hits(r[x[a]], ())]
                pairs = [(x, z) for x in prefixes for z in hits(r[x[a]], ())]
            else:  # the second check filters the bucket as it is read
                (b, rb, mb), *more = rest
                if not more and not dooms:
                    return [
                        x + (z,) for x in prefixes for z in hits(r[x[a]], ()) if mb[z] == rb[x[b]]
                    ]
                pairs = [
                    (x, z) for x in prefixes for z in hits(r[x[a]], ()) if mb[z] == rb[x[b]]
                ]
                for a, r, mine in more:
                    pairs = [q for q in pairs if mine[q[1]] == r[q[0][a]]]
        for reads in dooms:
            # the pairs whose every read edge is degenerate die, by identity
            dead = pairs
            for a, masks, bit in reads:
                if a == s:
                    dead = [q for q in dead if masks[q[1]] & bit]
                else:
                    dead = [q for q in dead if masks[q[0][a]] & bit]
            if dead:
                dead = set(map(id, dead))
                pairs = [q for q in pairs if id(q) not in dead]
        return [x + (z,) for x, z in pairs]

    return _backtrack(offsets[-1], extend)


def _cell_slots(p, dims):
    """The first slot of each cell k in :func:`_search`, then the slot count."""
    return list(accumulate((len(all_paths(p, d)) for d in dims), initial=0))


def _non_negative(**degrees):
    """Reject a negative source dimension n, simplex degree p or degree cap
    by name; an absent cap (None) passes."""
    for name, value in degrees.items():
        if value is not None and value < 0:
            raise ValueError("%s must be non-negative, got %d" % (name, value))


def iter_hom_simplices(space, n, p):
    """Stream the p-simplices of Hom(D^n, X) without caching.

    Values are lexicographic in candidate order along the lex-ordered
    paths.  A negative n or p raises ``ValueError`` when the stream starts.
    """
    _non_negative(n=n, p=p)
    yield from map(_hom_at, repeat(space), repeat(p), repeat(n), _search(space, p, (n,)))


def enumerate_hom_simplices(space, n, p):
    """All p-simplices of Hom(D^n, X), lexicographic in the path values."""
    return tuple(iter_hom_simplices(space, n, p))


# ---------------------------------------------------------------------------
# Simplicial structure.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reindex_plan(theta, gamma):
    """How to reindex any simplex of shape (theta.target, gamma.target).

    One ``(lifted path index, psi)`` pair per path of the small grid: the
    image of the small path is filled to the unique maximal path through
    its points (free segments at the ends take horizontal steps first),
    and ``psi`` is the step reparameterisation along which the simplex on
    that lifted path is pulled back.
    """
    p, n = theta.target, gamma.target
    index = path_index(p, n)
    plan = []
    for small in all_paths(theta.source, gamma.source):
        pts = [(theta(x), gamma(y)) for (x, y) in small.points()]
        pieces = ["H" * pts[0][0] + "V" * pts[0][1]]
        psi = [pts[0][0] + pts[0][1]]
        prev = pts[0]
        for pt in pts[1:]:
            dx, dy = pt[0] - prev[0], pt[1] - prev[1]
            assert dx == 0 or dy == 0
            pieces.append("H" * dx + "V" * dy)
            psi.append(pt[0] + pt[1])
            prev = pt
        pieces.append("H" * (p - prev[0]) + "V" * (n - prev[1]))
        lifted = "".join(pieces)
        plan.append(
            (index[lifted], MonotoneMap(theta.source + gamma.source, p + n, tuple(psi)))
        )
    return tuple(plan)


def _plan_rows(space, plan):
    """A reindex plan read on ``space``: its ``(lifted path index, psi)``
    pairs with each psi replaced by the target's row ``space.act(psi)``."""
    return [(index, space.act(psi)) for index, psi in plan]


def hom_bireindex(f, theta, gamma):
    """Reindex along theta in the simplex direction, gamma in the source.

    Realises precomposition with (theta x gamma) by following the
    per-shape plan of :func:`_reindex_plan`, on positions: each value is
    the target's action by the plan's psi on a position of f.
    """
    if theta.target != f.width or gamma.target != f.height:
        raise ValueError("reindexing maps do not match the simplex shape")
    positions = f.positions
    plan = _plan_rows(f.space, _reindex_plan(theta, gamma))
    return _hom_at(
        f.space, theta.source, gamma.source, tuple(row[positions[i]] for i, row in plan)
    )


def hom_reindex(f, theta):
    """Reindex in the simplex direction only."""
    return hom_bireindex(f, theta, identity_map(f.height))


def hom_face(f, i):
    return hom_reindex(f, face_map(i, f.width))


def hom_degeneracy(f, k):
    return hom_reindex(f, degeneracy_map(k, f.width))


def hom_source_reindex(f, gamma):
    """Reindex in the source direction only."""
    return hom_bireindex(f, identity_map(f.width), gamma)


# ---------------------------------------------------------------------------
# Degeneracy detection.
# ---------------------------------------------------------------------------

def _turning_word(k, j, p, n):
    """The path H^k V^j H^(p-k) V^(n-j), which turns at the grid point (k, j)."""
    return "H" * k + "V" * j + "H" * (p - k) + "V" * (n - j)


@lru_cache(maxsize=None)
def _turning_paths(p, n):
    """Entry ``[k][j]`` is the index of the path :func:`_turning_word`
    (k, j, p, n) in ``all_paths(p, n)``; it carries the grid edge
    (k, j) -> (k + 1, j) as its step k + j."""
    index = path_index(p, n)
    return tuple(
        tuple(index[_turning_word(k, j, p, n)] for j in range(n + 1)) for k in range(p)
    )


def edge_restriction(f, k, j):
    """The 1-simplex of X under the horizontal grid edge (k, j) -> (k+1, j)."""
    if not (0 <= k < f.width and 0 <= j <= f.height):
        raise ValueError("grid edge (%d, %d) out of range" % (k, j))
    p, n = f.width, f.height
    z = f.positions[_turning_paths(p, n)[k][j]]
    return f.space.simplices(1)[f.space.act(edge_map(k + j, 1, p + n))[z]]


def almost_degenerate_at(f, k):
    """Whether every horizontal edge over column k restricts degenerately.

    The edge (k, j) -> (k + 1, j) is the step k + j of a turning path, so
    this reads n + 1 bits of the target's degenerate-edge masks
    (``step_masks``); no simplex is built and no action entry is filled.
    """
    p, n = f.width, f.height
    if not 0 <= k < p:
        raise ValueError("grid edge (%d, 0) out of range" % (k,))
    edges, positions = f.space.step_masks(p + n)[1], f.positions
    for s, m in enumerate(_turning_paths(p, n)[k], k):
        if not edges[positions[m]] >> s & 1:
            return False
    return True


@lru_cache(maxsize=None)
def _path_runs(p, n):
    """Entry ``[m]`` holds the runs of consecutive horizontal steps of path
    m of the (p, n) grid, at most n + 1 of them, as ``(shift, keep)``
    pairs.  The horizontal steps of the paths, in ``all_paths`` order, are
    ``combinations(range(p + n), p)``, and path m steps from column k to
    k + 1 at its k-th one, s_k.  A run from column k on has shift s_k - k,
    and ``keep`` has every bit set but those of the run's columns, so
    AND-ing ``r >> shift | keep`` over the runs reads bit s_k of a step
    mask r as bit k."""
    table = []
    for steps in combinations(range(p + n), p):
        runs = []
        for k, s in enumerate(steps):
            if k and s == steps[k - 1] + 1:
                runs[-1][1] |= 1 << k
            else:
                runs.append([s - k, 1 << k])
        table.append(tuple((shift, ~mask) for shift, mask in runs))
    return tuple(table)


def _degenerate_columns(f):
    """The columns k at which f is the k-th degeneracy of some simplex, as
    a bitmask: bit k is set when column k qualifies.

    Column k qualifies exactly when, on every lattice path m, the collapse
    of f(m) repeats at s_m, the index of m's horizontal step from column k
    to k + 1.  This holds over any target, regular or not.  In mask form:
    the repeat mask of f(m) (``step_masks``), read on m's horizontal steps
    along :func:`_path_runs`, has bit k set on every path; the AND of those
    masks over the paths is the answer.

    (=>) s_k g is the reindex of g along sigma_k x id, and along m that
    map is the degeneracy at s_m: f(m) = s_{s_m} g(m'), where m' is m with
    its step s_m deleted, and its collapse repeats at s_m.

    (<=) The paths over one path m' of the (p - 1, n) grid differ only in
    the ordinate t at which they cross column k; m_t steps at s = k + t.
    The paths m_t and m_{t+1} differ at the point k + t + 1 alone, so
    their flip condition is d_{k+t+1} f(m_t) = d_{k+t+1} f(m_{t+1}).  A
    simplex that repeats at s has d_s = d_{s+1}, so this reads
    d_{k+t} f(m_t) = d_{k+t+1} f(m_{t+1}).  Hence g(m') = d_{s_m} f(m) is
    well defined, and f(m) = s_{s_m} g(m') on every path.  g is
    compatible, as the flip conditions of f pass through the injective
    degeneracies; indeed g is the k-th face of f, whose plan reads m'
    through its lift crossing column k at the bottom of its run.  So
    f = s_k g.

    For n = 1 this is ``exhibits.hom1_degeneracy_test``.  Only repeat
    masks are read, by position: no ``apply_map``, no reindex, and f's
    ``values`` are not built.
    """
    return _shared_columns(f.space, f.width, [(f.height, f.positions)])


def is_degenerate_hom(f):
    """Whether f is a degeneracy of some simplex: some column of
    :func:`_degenerate_columns` qualifies.  Valid over any target."""
    return bool(_degenerate_columns(f))


def _shared_columns(space, p, parts):
    """The mask of the columns below p in :func:`_degenerate_columns` of
    every part, a pair (n, positions) of a p-simplex of Hom(D^n, X); the
    AND stops at zero."""
    columns = (1 << p) - 1
    for n, positions in parts:
        repeats = space.step_masks(p + n)[0]
        for z, runs in zip(positions, _path_runs(p, n)):
            if not columns:
                return 0
            r = repeats[z]
            for shift, keep in runs:
                columns &= r >> shift | keep
    return columns


def _first_section(epi):
    """The section of a surjection sending each value to its first preimage."""
    return MonotoneMap(epi.target, epi.source, tuple(map(epi.values.index, range(epi.target + 1))))


def normalize_hom(f):
    """Split f as (collapse word, nondegenerate core), with f = eps^* core.

    By Eilenberg-Zilber the collapse eps of f repeats exactly at the
    degenerate columns of f, and the core is f reindexed along the
    first-preimage section of eps.  A nondegenerate f comes back as
    ``(identity_map(p), f)``, itself, with no reindex.
    """
    columns = _degenerate_columns(f)
    if not columns:
        return identity_map(f.width), f
    eps = surjection_from_repeats(f.width, [k for k in range(f.width) if columns >> k & 1])
    return eps, hom_reindex(f, _first_section(eps))


def lemma4_witness(space, f, k):
    """The witness g with f == (k-th degeneracy of g), which is g = d_k f.

    Requires column k of f to be entirely degenerate.  By the rule of
    :func:`_degenerate_columns`, f is the k-th degeneracy of its own k-th
    face exactly when, on every path, the collapse of its value repeats at
    the path's step across column k.  Over a regular target a degenerate
    column always passes; otherwise the first path whose collapse does not
    repeat there raises :class:`RegularityViolation`, carrying that path's
    simplex.  ``space`` must be f's own target, whose positions f holds;
    any other space raises ``ValueError``.
    """
    if space is not f.space:
        raise ValueError("f is a simplex over another target than the given space")
    if not 0 <= k < f.width:
        raise ValueError("column %d out of range" % (k,))
    if not almost_degenerate_at(f, k):
        raise ValueError("column %d of the simplex is not entirely degenerate" % (k,))
    p, n = f.width, f.height
    repeats = space.step_masks(p + n)[0]
    for m, (z, steps) in enumerate(zip(f.positions, combinations(range(p + n), p))):
        if not repeats[z] >> steps[k] & 1:
            raise RegularityViolation(
                "degenerate column %d does not split off a degeneracy on path %r; "
                "the target is not regular" % (k, all_paths(p, n)[m].word),
                offender=space.simplices(p + n)[z],
            )
    return hom_face(f, k)


# ---------------------------------------------------------------------------
# Dimension.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomDimension:
    """Either an exact dimension or a certified lower bound."""

    value: int
    exact: bool

    def __str__(self):
        return str(self.value) if self.exact else ">= %d" % (self.value,)


def _nondegenerate(space, p, dims, sides, seats, regular):
    """Stream the nondegenerate results of :func:`_search`, in its order:
    those whose maximal values, one per cell k of dimension dims[k], share
    no column of :func:`_degenerate_columns`.  Over a regular target the
    search seated on the source's vertices prunes every other branch, as
    :func:`dim_hom_general` proves; over any other each result is tested.
    """
    if regular:
        return _search(space, p, dims, sides, seats)
    ends = _cell_slots(p, dims)
    spans = [(d, slice(a, b)) for d, a, b in zip(dims, ends, ends[1:])]
    return (
        z
        for z in _search(space, p, dims, sides)
        if not _shared_columns(space, p, ((d, z[s]) for d, s in spans))
    )


def _top_degree(space, top, dims, sides, seats, regular):
    """The one degree scan of both dimension drivers, over a nonempty target:
    the largest p <= top at which :func:`_nondegenerate` yields, else 0."""
    for p in range(top, 0, -1):
        if next(_nondegenerate(space, p, dims, sides, seats, regular), None) is not None:
            return p
    return 0


def staircase_table(n, q):
    """Vertex values of the extremal staircase of degree (n + 1) * q.

    ``table[i][j]`` is the value at the grid point (i, j): the column at
    i = k*q + a (1 <= a <= q) reads 0 below level n - k, a on it, q above
    it; the zero column sits at i = 0.  Consecutive columns always differ.
    """
    table = [(0,) * (n + 1)]
    for i in range(1, (n + 1) * q + 1):
        k, a = divmod(i - 1, q)
        table.append(
            tuple(0 if j < n - k else a + 1 if j == n - k else q for j in range(n + 1))
        )
    return tuple(table)


def _written_simplex(space, cell, p, n, chain):
    """The p-simplex of Hom(D^n, X) whose value on a path is the action of
    its vertex values ``chain(path)`` on ``cell``, read as the positions
    0, ..., dim c of the vertices of the cell c.  A chain that reads a grid of
    vertex values at the path's points gives a compatible family."""
    (z,) = _positions(space, cell.dim, [cell_simplex(cell)])
    maps = (MonotoneMap(p + n, cell.dim, chain(path)) for path in all_paths(p, n))
    return _hom_at(space, p, n, tuple(space.act(psi)[z] for psi in maps))


def _regular_or_capped(space, degree_cap):
    """Whether the target is regular; an irregular one needs a degree cap."""
    regular = bool(is_regular(space))
    if not regular and degree_cap is None:
        raise ValueError("the target is not regular: an explicit degree cap is needed")
    return regular


def dim_hom(space, n, degree_cap=None):
    """Dimension of Hom(D^n, X).

    For a regular target the answer is exactly (n + 1) * dim X, read off
    that upper bound, and a degree cap, if given, is ignored.  The
    staircase in any top cell, which the answer does not build, attains
    it: none of its columns is fully degenerate, and a simplex with no
    such column is nondegenerate.  Otherwise a cap is required, and the
    scan :func:`_top_degree` down from it gives a lower bound: gaps in the
    degrees of nondegenerate simplices cannot be ruled out beyond the cap.
    """
    _non_negative(n=n, degree_cap=degree_cap)
    if space.dim < 0:
        return HomDimension(-1, True)
    if _regular_or_capped(space, degree_cap):
        return HomDimension((n + 1) * space.dim, True)
    return HomDimension(_top_degree(space, degree_cap, (n,), (), (), False), False)


# ---------------------------------------------------------------------------
# Mapping spaces out of an arbitrary finite source.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomFamily:
    """A p-simplex of Hom(U, X): one HomSimplex per cell of U, compatible
    with the face table of U."""

    source: SimplicialSet
    space: SimplicialSet
    width: int
    cells: tuple
    values: tuple

    def value(self, cell):
        return self.values[self.cells.index(cell)]


def _maximal_cells(source):
    """The cells of U that are no face-entry generator, top dimension first,
    then in cell order; every other cell of U is a face of one of them."""
    below = {fs.generator for entries in source.faces.values() for fs in entries}
    return sorted((u for u in source.cells if u not in below), key=lambda u: -u.dim)


def _pieces(source):
    """The cells of each connected component of U, one set per piece."""
    pieces = []
    for w in _maximal_cells(source):
        cells = _face_closure(source, [w])
        for piece in [piece for piece in pieces if piece & cells]:
            pieces.remove(piece)
            cells |= piece
        pieces.append(cells)
    return pieces


def _family_layout(source, cells):
    """The ``(dims, sides, seats, route)`` of :func:`_search` over the
    maximal cells of U among ``cells``, a union of its connected pieces;
    none of them depends on the degree.  The first maximal w whose closure
    holds u owns it, along a route gamma_u : [dim u] -> [dim w] of face
    maps and first-preimage sections: x_u o d_i = x_g o epi gives
    x_g = x_u o d_i o section(epi), so x_u is x_w reindexed along gamma_u,
    and ``route[u]`` is (k, gamma_u) for w the k-th maximal cell.  Each
    cell is read once, under its owner, where each face entry (i, epi, g)
    routes g if it has no route yet and gives the side (k, gamma_u o d_i,
    k', gamma_g o epi), kept when its two ends differ: an entry whose two
    sides reach one owner along one map equates each slot with itself.
    Each vertex sits at its first place, seen first.
    """
    maximal = [w for w in _maximal_cells(source) if w in cells]
    route = {}
    sides = []
    seats = {}
    for k, w in enumerate(maximal):
        for j in range(w.dim + 1):
            seats.setdefault(source.normal_values(w, (j,))[0], (k, j))
        # the cells w owns, each routed before it is read: faces are smaller
        owned = sorted(_face_closure(source, [w]) - route.keys(), key=lambda u: (-u.dim, u))
        route[w] = (k, identity_map(w.dim))
        for u in owned:
            for i, fs in enumerate(source.faces[u]):
                here = compose_monotone(route[u][1], face_map(i, u.dim))
                if fs.generator not in route:
                    route[fs.generator] = (k, compose_monotone(here, _first_section(fs.epi)))
                kk, eta = route[fs.generator]
                there = compose_monotone(eta, fs.epi)
                if (k, here) != (kk, there):
                    sides.append((k, here, kk, there))
    return [w.dim for w in maximal], sides, list(seats.values()), route


def iter_hom_families(source, space, p):
    """Stream the p-simplices of Hom(U, X) for a finite source U.

    A simplex is a family assigning to every cell of U (of dimension m) a
    p-simplex of Hom(D^m, X), such that restricting along the i-th face
    inclusion matches the face-table entry of U, degeneracies included.
    The search fills the paths of the maximal cells of U, top dimension
    first, so families come in lexicographic order of their maximal
    values' positions in :func:`enumerate_hom_simplices`; every other
    value is derived along its route, once per owner positions.
    A negative p raises ``ValueError`` when the stream starts.
    """
    _non_negative(p=p)
    dims, sides, _, route = _family_layout(source, source.cells)
    ends = _cell_slots(p, dims)
    ident = identity_map(p)
    reads = []
    for u in source.cells:
        k, gamma = route[u]
        plan = _plan_rows(space, _reindex_plan(ident, gamma))
        reads.append((u.dim, ends[k], ends[k + 1], plan, {}))
    for positions in _search(space, p, dims, sides):
        family = []
        for d, start, end, plan, known in reads:
            z = positions[start:end]
            f = known.get(z)
            if f is None:
                f = known[z] = _hom_at(space, p, d, tuple([row[z[i]] for i, row in plan]))
            family.append(f)
        yield HomFamily(source, space, p, source.cells, tuple(family))


def hom_general(source, space, p):
    """All p-simplices of Hom(U, X), in the order of :func:`iter_hom_families`."""
    return tuple(iter_hom_families(source, space, p))


def is_degenerate_family(family):
    """Degeneracy of a family is simultaneous componentwise degeneracy:
    some column is among the :func:`_degenerate_columns` of every value."""
    parts = [(f.height, f.positions) for f in family.values]
    return bool(_shared_columns(family.space, family.width, parts))


def _has_vertex_cycle(source, cells):
    """Whether the vertex digraph of U on ``cells`` has a directed cycle.
    It has one arrow d_1 e -> d_0 e for each 1-cell e there whose faces
    differ, so a loop adds none; a cycle is a pair (v, v) of its closure."""
    faces = (source.faces[e] for e in cells if e.dim == 1)
    arrows = [(d1.generator, d0.generator) for d0, d1 in faces if d0.generator != d1.generator]
    return any(a == b for a, b in transitive_closure(arrows))


def theorem1bis_bound(source, space):
    """The additive dimension bound: sum of (dim u + 1) * dim X over cells,
    and never below -1, the dimension of an empty mapping space."""
    return max(-1, sum((u.dim + 1) * space.dim for u in source.cells))


def dim_hom_general(source, space, degree_cap=None):
    """Dimension of Hom(U, X), exact for regular X.

    One loop answers the connected pieces A, B, ... of U, each read in
    place as a set of its cells: Hom(A + B, X) is Hom(A, X) x Hom(B, X),
    and a product has nondegenerate simplices exactly in the degrees
    [max(i, j), i + j] for nondegenerate i- and j-simplices of its
    factors.  Over a nonempty target each piece answers at least 0, with
    its constant families, so the dimensions add, cut to the cap when one
    is needed.

    Over a regular X, a connected U whose vertex digraph (see
    :func:`_has_vertex_cycle`) has no directed cycle answers the vertex
    bound |U_0| * dim X at once.  Rank U_0 along a topological order,
    r : U_0 -> [N] with N = |U_0| - 1.  Each elementary edge of a cell of
    U is either degenerate, with equal endpoints, or a 1-cell, which is a
    loop or an arrow, so r is monotone along every cell.  It therefore
    gives a simplicial map U -> D^N, as maps into a nerve are exactly the
    vertex maps monotone along every simplex.  Pull back along r the
    staircase of ``staircase_table(N, dim X)``, written into a top cell of
    X.  As r is a bijection, the vertex components of that family are the
    staircase's rows, all of them.  Each column step of the staircase climbs an
    elementary edge of the cell, nondegenerate over a regular X, so no
    column is fully degenerate, and by the column criterion below the
    family is nondegenerate.  Hence the dimension is at least
    |U_0| * dim X, which the vertex bound below caps.  Every other
    connected U is scanned down from the cap, or over a regular target
    from the vertex bound, by :func:`_top_degree` on one
    :func:`_family_layout`; each degree stops at its first nondegenerate family.

    The column criterion: over a regular X a family is degenerate at k
    exactly when the edge at k of every vertex component x_v in X_p is.
    Its other components are source-direction reindexings of the maximal
    ones, which commute with simplex-direction degeneracies, so it is
    degenerate at k exactly when every maximal x_w is.  By
    :func:`_degenerate_columns` that holds when on every path the collapse
    of x_w repeats at the step across column k, and over a regular X the
    edge (s, s + 1) of a simplex (epi, c) is degenerate exactly when epi
    repeats at s.  Each grid edge (k, j) -> (k + 1, j) is some path's
    step, and it is the edge at k of x_v for v the j-th vertex of w, as
    restricting the family to that vertex gives x_v.  Hence a branch whose
    read vertex edges at some column are all degenerate, one read per
    vertex wherever it sits, has only degenerate completions, and a family
    without such a column is nondegenerate: the pruned search answers with
    its first family.  And every column needs some x_v = (epi, c)
    nondegenerate there, which has at most dim c <= dim X nondegenerate
    elementary edges, so p <= |U_0| * dim X.  Over an irregular target
    each family is tested on its maximal components alone: it is
    nondegenerate when they share no column of :func:`_degenerate_columns`.
    """
    _non_negative(degree_cap=degree_cap)
    if space.dim < 0:
        return HomDimension(0 if not source.cells else -1, True)
    regular = _regular_or_capped(space, degree_cap)
    total = 0
    for cells in _pieces(source):
        bound = sum(u.dim == 0 for u in cells) * space.dim
        if regular and not _has_vertex_cycle(source, cells):
            total += bound
            continue
        dims, sides, seats, _ = _family_layout(source, cells)
        total += _top_degree(space, bound if regular else degree_cap, dims, sides, seats, regular)
    return HomDimension(total if regular else min(total, degree_cap), regular)


# ---------------------------------------------------------------------------
# Assembling the mapping space into an actual simplicial set.
# ---------------------------------------------------------------------------

def hom_complex(space, n, degree_cap=None):
    """Present Hom(D^n, X) as a SimplicialSet, with its cell legend.

    For a regular target the presentation is complete: no nondegenerate
    simplex exists above (n + 1) * dim X, so ``degree_cap`` is ignored
    there, as :func:`dim_hom` ignores it.  Otherwise a cap must be given
    and the result is the cap-skeleton.

    Returns ``(complex, legend)`` where legend maps cell ids back to the
    nondegenerate HomSimplex they present.

    The face entries are built on positions, degree by degree.  The p + 1
    face plans of a degree are read once, as rows of the target, and each
    distinct face is normalised once by :func:`normalize_hom`, into the
    entry ``normalize_hom(hom_face(f, i))`` would give (a face with no
    degenerate column is its own cell).
    """
    _non_negative(n=n, degree_cap=degree_cap)
    regular = _regular_or_capped(space, degree_cap)
    # an empty target gives a negative top, so no degree is listed
    top = (n + 1) * space.dim if regular else degree_cap
    ident = identity_map(n)
    cell_of = []  # per degree: the positions of each cell's simplex -> cell
    legend = {}
    faces = {}
    for p in range(top + 1):
        found = _nondegenerate(space, p, (n,), (), [(0, j) for j in range(n + 1)], regular)
        cells = {}
        for i, z in enumerate(found):
            c = cells[z] = CellId(p, "h%d#%d" % (p, i))
            legend[c] = _hom_at(space, p, n, z)
        cell_of.append(cells)
        if not p:
            continue
        plans = [_plan_rows(space, _reindex_plan(face_map(i, p), ident)) for i in range(p + 1)]
        entries = {}  # the positions of a face -> its entry
        for z, c in cells.items():
            row_entries = []
            for plan in plans:
                face = tuple(row[z[i]] for i, row in plan)
                entry = entries.get(face)
                if entry is None:
                    eps, core = normalize_hom(_hom_at(space, p - 1, n, face))
                    entry = entries[face] = FormalSimplex(eps, cell_of[eps.target][core.positions])
                row_entries.append(entry)
            faces[c] = tuple(row_entries)
    return SimplicialSet(legend, faces), legend
