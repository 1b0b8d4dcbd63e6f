"""A golden digest of the search's output order.

Each group is one stream of the engine, read as target positions and
hashed to a short digest: the enumeration, the nondegenerate stream over
one cell, the cell legend of ``hom_complex`` and the family order of
``hom_general``, with the nondegenerate family stream read as whole
families.  A refactor of the search must leave every digest as it is.
The ``/small`` suffix names the candidate order, the only one the search
has.

Rewrite ``search_golden/digest.json`` from the current code with
``PYTHONPATH=src python tests/test_search_golden.py``.
"""

import hashlib
import json
from pathlib import Path

from simphom.exhibits import corpus
from simphom.hom import (
    _family_layout,
    _maximal_cells,
    _nondegenerate,
    hom_complex,
    iter_hom_families,
    iter_hom_simplices,
)
from simphom.simpset import boundary_delta, delta, disjoint_sum, horn, product, quotient

GOLDEN = Path(__file__).resolve().parent / "search_golden" / "digest.json"

_TARGETS = (
    "delta1",
    "delta2",
    "boundary2",
    "horn21",
    "nerve-vee",
    "nerve-fence",
    "triangle/long-edge",
    "triangle/boundary",
    "nerve-diamond",
    "square",
)


def _short(items):
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def _family_sources(spaces):
    pt = delta(0)
    return {
        "boundary1": boundary_delta(1),
        "boundary2": boundary_delta(2),
        "horn21": horn(2, 1),
        "sum-pt-delta1": disjoint_sum(pt, delta(1)),
        "q2": quotient(delta(2), ["0,2"]),
        "loop": quotient(delta(1), ["0", "1"]),
        "square": product(delta(1), delta(1)),
        "ball2": quotient(delta(2), ["0,1", "0,2", "1,2"]),
        "vee": spaces["nerve-vee"],
        "fence": spaces["nerve-fence"],
    }


def search_digest():
    """The digest of every group, by group name."""
    spaces = {e.name: e.space for e in corpus()}
    targets = {name: spaces[name] for name in _TARGETS}
    targets["q2"] = quotient(delta(2), ["0,2"])
    regular = {name for name in targets if name not in ("triangle/long-edge", "triangle/boundary")}
    out = {}
    for name, space in targets.items():
        for n in range(4):
            for p in range(7):
                if len(space.simplices(p + n)) ** (p + 1) > 10**6:
                    continue
                key = "%s/n%d/p%d/small" % (name, n, p)
                found = iter_hom_simplices(space, n, p)
                out["enum/" + key] = _short(f.positions for f in found)
                if name in regular:
                    seats = [(0, j) for j in range(n + 1)]
                    out["nondeg/" + key] = _short(_nondegenerate(space, p, (n,), (), seats, True))
    for name in ("delta1", "delta2", "q2", "triangle/long-edge"):
        for n in (0, 1):
            cap = None if name != "triangle/long-edge" else 3
            skeleton, legend = hom_complex(targets[name], n, degree_cap=cap)
            legend = sorted((c.name, f.positions) for c, f in legend.items())
            faces = sorted(
                (c.name, [(fs.epi.values, fs.generator.name) for fs in skeleton.faces[c]])
                for c in skeleton.cells
            )
            out["complex/%s/n%d" % (name, n)] = _short(legend + faces)
    for source_name, source in _family_sources(spaces).items():
        maximal = _maximal_cells(source)
        for name in ("delta1", "delta2", "q2", "boundary2"):
            for p in range(4):
                key = "%s/%s/p%d" % (source_name, name, p)
                families = [
                    tuple(f.positions for f in family.values)
                    for family in iter_hom_families(source, targets[name], p)
                ]
                out["family/" + key] = _short(families)
                # a search result is its maximal values' positions, end to end
                by_result = {
                    sum((values[source.cells.index(w)] for w in maximal), ()): values
                    for values in families
                }
                dims, equations, seats, _ = _family_layout(source, p)
                pruned = _nondegenerate(targets[name], p, dims, equations, seats, True)
                out["pruned/" + key] = _short(by_result[z] for z in pruned)
    return out


def test_search_digest_is_unchanged():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = search_digest()
    assert sorted(got) == sorted(golden)
    assert [k for k in golden if got[k] != golden[k]] == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(search_digest(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
