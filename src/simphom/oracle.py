"""Independent counting routes for mapping-space sizes.

Two deliberately separate ways to count the p-simplices of a mapping
space, used to cross-check the path-based engine:

* a brute-force count of simplicial maps out of an explicit product
  ``standard p-simplex x source``, assigning a target simplex to every
  nondegenerate cell of the product in dimension order, with eager
  feasibility pruning.  The search runs on positions in the target's
  lists of simplices, through tables local to the call: an action table
  per collapse among the domain's face entries and the face rows of each
  degree.  Every entry is a pullback of a cell, phi^*(eta^*c) =
  (eta o phi)^*c, kept in a memo of the call, so each distinct pullback
  goes through ``apply_map`` once per call;
* a closed-form-free lattice count for standard-simplex source and
  target, where such maps are exactly the grid functions monotone in both
  directions.

Neither route touches the path encoding or the engine's face tables:
they share only the basic simplicial-set primitives.

The one cache this module owns is the *domain memo*, ``_domain``: an
``lru_cache`` of at most 16 products ``standard p-simplex x source``, keyed
by the width p and the source's presentation (its ``cells`` and their
``faces`` entries, which fix the product exactly).  A miss builds the
product with ``simpset.product``, so a sweep of many targets over a few
shapes builds each domain once.  The count only reads a domain, so the
shared instance is never changed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .delta import face_map
from .simpset import SimplicialSet, delta, product


class OracleBudgetExceeded(Exception):
    """The brute-force search used up its node budget."""

    def __init__(self, nodes):
        super().__init__(
            "brute-force search exceeded its budget of %d nodes" % (nodes,)
        )
        self.nodes = nodes


def count_simplicial_maps(domain, target, node_budget=2_000_000):
    """Count simplicial maps from one finite simplicial set to another.

    Cells of the domain are assigned target simplices of the same degree in
    dimension order; every face entry of the domain becomes an equation
    between target simplices.  The search runs on positions: a simplex of
    degree d is its index in ``target.simplices(d)``.  Two tables, built
    once per call and dropped with it, turn every equation into integer
    lookups:

    * one *action table* per distinct collapse among the domain's face
      entries, mapping positions of the collapse's target degree to
      positions of its source degree;
    * the *face rows* of each degree the domain uses, with the simplices
      grouped by their whole row.

    Every entry of either is phi^*z for a simplex z = eta^*c, which is
    the pullback (eta o phi)^*c of the cell c; for the face d_i, the
    values of eta o phi are eta's with entry i dropped.  Both tables read
    one memo of the call, keyed by ``(c.name, values of eta o phi)``: a
    miss computes the entry through ``apply_map``, so each distinct
    pullback costs one ``apply_map`` call per count.  The positions are
    indexed by ``(generator name, collapse values)``.

    A cell's candidates are then the group of its required faces, in
    canonical order (for a vertex, every vertex of the target).  Each
    cell has one watcher, on the last generator below it: when that
    generator is assigned, the watcher looks the group up, and a failed
    lookup prunes the branch; otherwise the group it found is the cell's
    candidate list, read once.  The search keeps one candidate iterator
    per assigned cell on an explicit stack, so its depth is never bounded
    by the recursion limit; ``node_budget`` caps the candidates tried.
    """
    cells = domain.cells
    if not cells:
        return 1
    order_pos = {c: t for t, c in enumerate(cells)}
    positions = {}

    def index(degree):
        table = positions.get(degree)
        if table is None:
            table = {
                (z.generator.name, z.epi.values): k
                for k, z in enumerate(target.simplices(degree))
            }
            positions[degree] = table
        return table

    pulled = {}

    def pull(phi, z):
        # phi^*z for z = eta^*c is (eta o phi)^*c: one apply_map per pullback
        v = z.epi.values
        key = (z.generator.name, tuple([v[t] for t in phi.values]))
        k = pulled.get(key)
        if k is None:
            y = target.apply_map(phi, z)
            k = pulled[key] = index(phi.source)[y.generator.name, y.epi.values]
        return k

    actions = {}
    for c in cells:
        for fs in domain.faces[c]:
            epi = fs.epi
            if epi not in actions:
                actions[epi] = tuple(pull(epi, z) for z in target.simplices(epi.target))
    groups = {}
    for d in {c.dim for c in cells}:
        simplices = target.simplices(d)
        if d == 0:
            groups[d] = {(): range(len(simplices))}
            continue
        faces = [face_map(i, d) for i in range(d + 1)]
        group = {}
        for k, z in enumerate(simplices):
            group.setdefault(tuple([pull(f, z) for f in faces]), []).append(k)
        groups[d] = group
    pools = [None] * len(cells)
    watchers = [[] for _ in cells]
    for t, c in enumerate(cells):
        entries = tuple(
            (order_pos[fs.generator], actions[fs.epi]) for fs in domain.faces[c]
        )
        if entries:
            watchers[max(g for g, _ in entries)].append((t, groups[c.dim], entries))
        else:
            pools[t] = groups[0][()]
    assigned = [None] * len(cells)
    budget = node_budget
    total = 0
    stack = [iter(pools[0])]
    while stack:
        t = len(stack) - 1
        for z in stack[t]:
            budget -= 1
            if budget < 0:
                raise OracleBudgetExceeded(node_budget)
            assigned[t] = z
            for u, group, entries in watchers[t]:
                pools[u] = group.get(tuple([table[assigned[g]] for g, table in entries]))
                if pools[u] is None:
                    break
            else:
                if t + 1 == len(cells):
                    total += 1
                    continue
                stack.append(iter(pools[t + 1]))
                break
        else:
            stack.pop()
    return total


@lru_cache(maxsize=16)
def _domain(width, cells, faces):
    """``standard width-simplex x source``, for the source presented by
    ``cells`` and their ``faces`` (the key of the domain memo)."""
    return product(delta(width), SimplicialSet(cells, dict(zip(cells, faces))))


def brute_force_hom_count(source, target, width, node_budget=2_000_000):
    """|Hom(source, target)| in degree ``width``, counted the long way round.

    A width-p simplex of the mapping space is a simplicial map out of
    ``standard p-simplex x source``; the product is built explicitly, once
    per (width, presentation of the source) in the domain memo, and its
    maps are counted cell by cell.
    """
    if width < 0:
        raise ValueError("width must be non-negative, got %d" % (width,))
    cells = source.cells
    domain = _domain(width, cells, tuple(source.faces[c] for c in cells))
    return count_simplicial_maps(domain, target, node_budget=node_budget)


def count_monotone_lattice_maps(p, n, q):
    """Number of [p] x [n] grid functions into [q] monotone both ways.

    These are exactly the width-p simplices of the mapping space between
    standard simplices of dimensions n and q, counted with no simplicial
    machinery at all: dynamic programming over weakly increasing columns.
    """
    if p < 0 or n < 0:
        raise ValueError("grid shape must be nonnegative")
    if q < 0:
        return 0
    columns = list(combinations_with_replacement(range(q + 1), n + 1))
    counts = {col: 1 for col in columns}
    for _ in range(p):
        nxt = {}
        for col, ways in counts.items():
            for succ in columns:
                if all(a <= b for a, b in zip(col, succ)):
                    nxt[succ] = nxt.get(succ, 0) + ways
        counts = nxt
    return sum(counts.values())
