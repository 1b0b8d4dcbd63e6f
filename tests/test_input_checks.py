"""Every constructor and helper rejects malformed input with ``ValueError``."""

import pytest

from simphom.delta import (
    MonotoneMap,
    SurjectionWord,
    collapse_map,
    degeneracy_map,
    edge_map,
    face_map,
    identity_map,
    surjection_to_word,
)
from simphom.exhibits import LatticeFunction
from simphom.paths import all_paths, split_path_at_column
from simphom.simpset import (
    CellId,
    FormalSimplex,
    SimplicialSet,
    boundary_delta,
    delta,
    horn,
    nerve_poset,
    quotient,
    union,
)

V, W, E = CellId(0, "v"), CellId(0, "w"), CellId(1, "e")
AT_V = FormalSimplex(identity_map(0), V)


CASES = {
    "negative cell dimension": (lambda: CellId(-1, "a"), "dimension must be non-negative"),
    "empty cell name": (lambda: CellId(0, ""), "name must be non-empty"),
    "duplicate cell name": (
        lambda: SimplicialSet([V, CellId(1, "v")], {CellId(1, "v"): (AT_V, AT_V)}),
        "duplicate cell name 'v'",
    ),
    "vertex with face entries": (
        lambda: SimplicialSet([V], {V: (AT_V,)}),
        "vertex 'v' cannot have face entries",
    ),
    "wrong entry count": (
        lambda: SimplicialSet([V, E], {E: (AT_V,)}),
        "needs 2 face entries, got 1",
    ),
    "wrong entry degree": (
        lambda: SimplicialSet([V, E], {E: (FormalSimplex(collapse_map(1), V), AT_V)}),
        "face of 'e' has wrong degree",
    ),
    "entry naming an unknown cell": (
        lambda: SimplicialSet([V, E], {E: (FormalSimplex(identity_map(0), W), AT_V)}),
        "references unknown cell 'w'",
    ),
    "union of disagreeing cells": (
        lambda: union(delta(1), quotient(delta(1), ["0", "1"])),
        "disagrees between the union arguments",
    ),
    "quotient by nothing": (
        lambda: quotient(delta(1), []),
        "cannot collapse an empty subcomplex",
    ),
    "nerve with duplicate printable names": (
        lambda: nerve_poset([1, "1"], []),
        "distinct printable names",
    ),
    "nerve element naming '<'": (lambda: nerve_poset(["a<b"], []), "may not contain '<'"),
    "nerve pair outside the carrier": (
        lambda: nerve_poset(["a"], [("a", "b")]),
        "outside the carrier",
    ),
    "nerve x < x": (lambda: nerve_poset(["a"], [("a", "a")]), "cannot relate 'a' to itself"),
    "negative delta": (lambda: delta(-1), r"delta\(n\) needs n >= 0"),
    "negative boundary": (lambda: boundary_delta(-1), r"boundary_delta\(n\) needs n >= 0"),
    "horn index past n": (lambda: horn(1, 2), r"horn\(1, 2\) is out of range"),
    "non-integer map value": (
        lambda: MonotoneMap(1, 1, (0, 0.5)),
        "values must be integers",
    ),
    "face map out of range": (lambda: face_map(3, 2), r"face_map\(3, 2\) is out of range"),
    "degeneracy map out of range": (
        lambda: degeneracy_map(3, 2),
        r"degeneracy_map\(3, 2\) is out of range",
    ),
    "edge map out of range": (lambda: edge_map(1, 2, 2), r"edge_map\(1, 2, 2\) is out of range"),
    "negative surjection word": (
        lambda: SurjectionWord(-1, ()),
        "source ordinal must be non-negative",
    ),
    "word of a non-surjection": (
        lambda: surjection_to_word(face_map(0, 1)),
        "is not surjective",
    ),
    "lattice function with a short column": (
        lambda: LatticeFunction(1, 1, 1, ((0, 0), (1,))),
        "one value per ordinate",
    ),
    "lattice function with decreasing rows": (
        lambda: LatticeFunction(1, 0, 1, ((1,), (0,))),
        "rows must be weakly increasing",
    ),
    "crossing ordinate past the width": (
        lambda: all_paths(1, 1)[0].crossing_ordinate(1),
        "no horizontal step leaves column 1",
    ),
    "reassembly outside the crossing range": (
        lambda: split_path_at_column(all_paths(1, 1)[0], 0).reassemble(2),
        r"crossing ordinate 2 outside \[0, 1\]",
    ),
}


@pytest.mark.parametrize("build, message", CASES.values(), ids=list(CASES))
def test_malformed_input_raises_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
