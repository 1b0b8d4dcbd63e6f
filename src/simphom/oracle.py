"""Independent counting routes for mapping-space sizes.

Two deliberately separate ways to count the p-simplices of a mapping
space, used to cross-check the path-based engine:

* a brute-force count of simplicial maps out of an explicit product
  ``standard p-simplex x source``, assigning a target simplex to every
  nondegenerate cell of the product in dimension order, with eager
  feasibility pruning.  The search runs on positions in the target's
  lists of simplices, through tables local to the call: an action table
  per collapse among the domain's face entries and the face rows of each
  degree, all computed through ``face``/``apply_map``;
* a closed-form-free lattice count for standard-simplex source and
  target, where such maps are exactly the grid functions monotone in both
  directions.

Neither route touches the path encoding or the engine's face tables:
they share only the basic simplicial-set primitives.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .simpset import delta, product


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
      positions of its source degree, computed through ``apply_map``;
    * the *face rows* of each degree the domain uses, computed through
      ``face``, with the simplices grouped by their whole row.

    A cell's candidates are then the group of its required faces, in
    canonical order (for a vertex, every vertex of the target).  As soon
    as the last generator below a cell is assigned, that group is checked
    for nonemptiness.  The search keeps one candidate iterator per
    assigned cell on an explicit stack, so its depth is never bounded by
    the recursion limit; ``node_budget`` caps the candidates tried.
    """
    cells = domain.cells
    if not cells:
        return 1
    order_pos = {c: t for t, c in enumerate(cells)}
    positions = {}

    def index(degree):
        table = positions.get(degree)
        if table is None:
            table = {z: k for k, z in enumerate(target.simplices(degree))}
            positions[degree] = table
        return table

    actions = {}
    for c in cells:
        for fs in domain.faces[c]:
            epi = fs.epi
            if epi not in actions:
                below = index(epi.source)
                actions[epi] = tuple(
                    below[target.apply_map(epi, z)]
                    for z in target.simplices(epi.target)
                )
    groups = {}
    for d in {c.dim for c in cells}:
        simplices = target.simplices(d)
        if d == 0:
            groups[d] = {(): range(len(simplices))}
            continue
        below = index(d - 1)
        group = {}
        for k, z in enumerate(simplices):
            row = tuple(below[target.face(z, i)] for i in range(d + 1))
            group.setdefault(row, []).append(k)
        groups[d] = group
    equations = [
        (
            groups[c.dim],
            tuple((order_pos[fs.generator], actions[fs.epi]) for fs in domain.faces[c]),
        )
        for c in cells
    ]
    watchers = [[] for _ in cells]
    for t, (_, entries) in enumerate(equations):
        if entries:
            watchers[max(g for g, _ in entries)].append(equations[t])
    assigned = [None] * len(cells)

    def required(entries):
        return tuple([table[assigned[g]] for g, table in entries])

    def candidates(t):
        group, entries = equations[t]
        return iter(group.get(required(entries), ()))

    budget = node_budget
    total = 0
    stack = [candidates(0)]
    while stack:
        t = len(stack) - 1
        for z in stack[t]:
            budget -= 1
            if budget < 0:
                raise OracleBudgetExceeded(node_budget)
            assigned[t] = z
            blocked = False
            for group, entries in watchers[t]:
                if required(entries) not in group:
                    blocked = True
                    break
            if blocked:
                continue
            if t + 1 == len(cells):
                total += 1
                continue
            stack.append(candidates(t + 1))
            break
        else:
            stack.pop()
    return total


def brute_force_hom_count(source, target, width, node_budget=2_000_000):
    """|Hom(source, target)| in degree ``width``, counted the long way round.

    A width-p simplex of the mapping space is a simplicial map out of
    ``standard p-simplex x source``; the product is built explicitly and
    its maps are counted cell by cell.
    """
    return count_simplicial_maps(
        product(delta(width), source), target, node_budget=node_budget
    )


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
