"""Edge-based degeneracy diagnostics for finite simplicial sets.

Three nested conditions are implemented:

* *strongly regular*: every face of every nondegenerate cell is again
  nondegenerate (the face table contains no collapses at all);
* *regular*: every elementary edge (consecutive vertices i, i+1) of every
  nondegenerate cell is nondegenerate;
* *collapse property of width r*: whenever the edge from position i to
  position i + r of any simplex x is degenerate, x is an r-fold degeneracy
  on that whole block, i.e. its collapse is constant on {i, ..., i + r}.

Edges are read off one table per call, never through ``apply_map``: for
each cell c, the pairs a < b <= a + r whose values on c normalise onto a
vertex (:meth:`SimplicialSet.normal_values`).  The edge from i to j of
the simplex (epi, c) is degenerate exactly when epi(i) = epi(j) or
(epi(i), epi(j)) is in c's entry, and epi(j) - epi(i) <= j - i.

The width-r property is checked by enumerating simplices up to a degree
cap; the default cap (dimension + r + 1) exceeds the largest degree at
which a minimal violation can occur, because a violating block always
compresses onto an edge of width <= r of a nondegenerate cell.

Reports carry the lexicographically least witness: cells are scanned in
(dimension, name) order, then by collapse word, then by edge index.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a diagnostic: a verdict plus the least violation found.

    ``witness`` is ``None`` on success; otherwise a pair ``(subject, index)``
    where ``subject`` is the cell or normal-form simplex at fault and
    ``index`` points at the offending face or edge.
    """

    verdict: bool
    witness: tuple = None

    def __bool__(self):
        return self.verdict


def is_strongly_regular(space):
    """Whether every face entry of every cell is nondegenerate."""
    for c in space.cells:
        for i, fs in enumerate(space.faces[c]):
            if fs.is_degenerate:
                return RegularityReport(False, (c, i))
    return RegularityReport(True)


def _degenerate_edges(space, cell, r):
    # The pairs a < b <= a + r whose edge of ``cell`` is degenerate.
    return frozenset(
        (a, b)
        for a in range(cell.dim)
        for b in range(a + 1, min(a + r, cell.dim) + 1)
        if space.normal_values(cell, (a, b))[0].dim == 0
    )


def _degenerate_steps(x, bad):
    # Whether each elementary edge of x is degenerate, given the degenerate
    # pairs ``bad`` of its generator.
    v = x.epi.values
    return [v[i] == v[i + 1] or (v[i], v[i + 1]) in bad for i in range(x.degree)]


def is_regular(space):
    """Whether every elementary edge of every cell is nondegenerate."""
    for c in space.cells:
        bad = _degenerate_edges(space, c, 1)
        if bad:
            return RegularityReport(False, (c, min(bad)[0]))
    return RegularityReport(True)


def satisfies_pr(space, r, degree_cap=None):
    """Whether degenerate edges of width <= r only arise from block collapses.

    When no cell has a degenerate edge of width <= r (the table of the
    module docstring), the answer is true at once.  Otherwise the simplices
    x of degree r to ``degree_cap`` on the cells with such an edge are
    streamed in canonical order, keeping no degree, and for every position
    i the edge from i to i + r of x is read off the table.  If that edge is
    degenerate, x itself must be constant on the block {i, ..., i + r}
    under its collapse; the first simplex violating this is the witness.
    """
    if r < 1:
        raise ValueError("the collapse property needs a width r >= 1")
    if degree_cap is None:
        degree_cap = space.dim + r + 1
    if degree_cap < space.dim:
        raise ValueError(
            "degree cap %d is below the dimension %d" % (degree_cap, space.dim)
        )
    table = {c: _degenerate_edges(space, c, r) for c in space.cells}
    faulty = {c for c, bad in table.items() if bad}
    if not faulty:
        return RegularityReport(True)
    for degree in range(r, degree_cap + 1):
        for x in space.iter_simplices(degree, faulty):
            v, bad = x.epi.values, table[x.generator]
            for i in range(degree - r + 1):
                if (v[i], v[i + r]) in bad:
                    return RegularityReport(False, (x, i))
    return RegularityReport(True)


def count_efficient_edges(space, x):
    """Number of elementary edges of x that are nondegenerate."""
    return _degenerate_steps(x, _degenerate_edges(space, x.generator, 1)).count(False)


def edge_detects_degeneracy(space, degree_cap):
    """Whether, up to the cap, a simplex is degenerate exactly when one of
    its elementary edges is.

    The forward direction (a degenerate simplex has a degenerate elementary
    edge) holds in every simplicial set once the degree is at least one; the
    reverse direction characterises the regular ones.
    """
    table = {c: _degenerate_edges(space, c, 1) for c in space.cells}
    for degree in range(1, degree_cap + 1):
        for x in space.simplices(degree):
            if x.is_degenerate != any(_degenerate_steps(x, table[x.generator])):
                return RegularityReport(False, (x, None))
    return RegularityReport(True)
