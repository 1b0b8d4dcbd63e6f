"""Independent counting routes for mapping-space sizes.

Two deliberately separate ways to count the p-simplices of a mapping
space, used to cross-check the path-based engine:

* a brute-force count of simplicial maps out of an explicit product
  ``standard p-simplex x source``, assigning a target simplex to every
  nondegenerate cell of the product in dimension order, with eager
  feasibility pruning;
* a closed-form-free lattice count for standard-simplex source and
  target, where such maps are exactly the grid functions monotone in both
  directions.

Neither route touches the path encoding: they share only the basic
simplicial-set primitives.
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
    dimension order; every face-table entry of the domain becomes an
    equation between target simplices.  Two prunings keep the search near
    the solution count: candidates for a cell are looked up by their first
    constrained face, and as soon as the last generator below a cell is
    assigned, the cell's candidate pool is checked for nonemptiness.  Pools
    are memoised on the degree and the full tuple of required faces, so the
    pool that passed the check is the one the cell later draws from.  The
    search keeps one candidate iterator per assigned cell on an explicit
    stack, so its depth is never bounded by the recursion limit.
    """
    cells = domain.cells
    order_pos = {c: t for t, c in enumerate(cells)}
    watchers = [[] for _ in cells]
    for w in cells:
        entries = domain.faces[w]
        if not entries:
            continue
        trigger = max(order_pos[fs.generator] for fs in entries)
        watchers[trigger].append(w)

    buckets = {}

    def bucket(degree):
        table = buckets.get(degree)
        if table is None:
            table = {}
            for z in target.simplices(degree):
                table.setdefault(target.face(z, 0), []).append(z)
            buckets[degree] = table
        return table

    def required_faces(w, assigned):
        return tuple(
            target.apply_map(fs.epi, assigned[fs.generator])
            for fs in domain.faces[w]
        )

    pools = {}

    def pool_for(degree, required):
        key = (degree, required)
        hit = pools.get(key)
        if hit is None:
            if not required:
                hit = target.simplices(degree)
            else:
                hit = [
                    z
                    for z in bucket(degree).get(required[0], ())
                    if all(
                        target.face(z, i) == required[i]
                        for i in range(1, len(required))
                    )
                ]
            pools[key] = hit
        return hit

    assigned = {}

    def candidates(t):
        c = cells[t]
        return iter(pool_for(c.dim, required_faces(c, assigned)))

    if not cells:
        return 1
    budget = node_budget
    total = 0
    stack = [candidates(0)]
    while stack:
        t = len(stack) - 1
        c = cells[t]
        for z in stack[t]:
            budget -= 1
            if budget < 0:
                raise OracleBudgetExceeded(node_budget)
            assigned[c] = z
            if not all(
                pool_for(w.dim, required_faces(w, assigned)) for w in watchers[t]
            ):
                continue
            if t + 1 == len(cells):
                total += 1
                continue
            stack.append(candidates(t + 1))
            break
        else:
            stack.pop()
            assigned.pop(c, None)
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
