"""Lattice paths in a rectangle: enumeration, flips and splits."""

import math

import pytest

from simphom.paths import (
    LatticePath,
    all_paths,
    flip_constraints,
    path_index,
    split_path_at_column,
)


class TestEnumeration:
    def test_counts_are_binomial(self):
        for width in range(5):
            for height in range(4):
                assert len(all_paths(width, height)) == math.comb(width + height, width)

    def test_lex_order(self):
        paths = all_paths(3, 2)
        assert paths[0].word == "HHHVV"
        assert paths[-1].word == "VVHHH"
        words = [p.word for p in paths]
        assert words == sorted(words)
        assert len(set(words)) == 10

    def test_path_index_inverts(self):
        idx = path_index(3, 2)
        for i, p in enumerate(all_paths(3, 2)):
            assert idx[p.word] == i

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticePath(2, 1, "HH")
        with pytest.raises(ValueError):
            LatticePath(2, 1, "VVH")

    def test_points_and_crossings(self):
        p = LatticePath(2, 2, "HVVH")
        assert p.points() == ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2))
        assert p.crossing_ordinate(0) == 0
        assert p.crossing_ordinate(1) == 2
        assert p.point_at(2) == (1, 1)


class TestFlips:
    def test_every_later_path_has_a_link(self):
        for width in range(1, 5):
            for height in range(1, 4):
                links = flip_constraints(width, height)
                assert links[0] == ()
                for m in range(1, len(links)):
                    assert links[m], "path %d has no earlier flip neighbour" % m
                    for earlier, s in links[m]:
                        assert earlier < m
                        assert 1 <= s <= width + height - 1

    def test_flip_changes_one_visited_point(self):
        paths = all_paths(2, 2)
        for m, entries in enumerate(flip_constraints(2, 2)):
            for earlier, s in entries:
                a = paths[m].points()
                b = paths[earlier].points()
                diff = [i for i in range(len(a)) if a[i] != b[i]]
                assert diff == [s]

    def test_flip_pairs_cover_all_unit_squares(self):
        # one flip pair per VH descent across all six paths of the 2x2 grid:
        # HHVV has none, VHVH has two, the other four have one each
        total = sum(len(e) for e in flip_constraints(2, 2))
        assert total == 6


class TestSplits:
    def test_frozen_example(self):
        p = LatticePath(2, 1, "HVH")
        sp = split_path_at_column(p, 1)
        assert (sp.alpha, sp.crossing, sp.beta) == (0, 1, 1)
        assert sp.entry_word == "H" and sp.exit_word == ""
        assert sp.reassemble().word == "HVH"
        assert sp.reassemble(0).word == "HHV"
        assert sp.merged_path().word == "HV"

    def test_split_round_trip(self):
        for width in range(1, 5):
            for height in range(3):
                for p in all_paths(width, height):
                    for k in range(width):
                        sp = split_path_at_column(p, k)
                        assert sp.reassemble() == p
                        # merging deletes the crossing step, at k + crossing
                        s = k + sp.crossing
                        assert sp.merged_path().word == p.word[:s] + p.word[s + 1:]
                        for t in range(sp.alpha, sp.beta + 1):
                            q = sp.reassemble(t)
                            assert split_path_at_column(q, k).crossing == t

    def test_merge_partitions_wider_rectangle(self):
        # deleting the column-k crossing maps the wide rectangle onto the
        # narrow one; fibres have size beta - alpha + 1 and partition it
        width, height, k = 3, 2, 1
        fibres = {}
        for q in all_paths(width, height):
            fibres.setdefault(split_path_at_column(q, k).merged_path(), []).append(q)
        assert set(fibres) == set(all_paths(width - 1, height))
        for fibre in fibres.values():
            sp = split_path_at_column(fibre[0], k)
            assert len(fibre) == sp.beta - sp.alpha + 1
            assert sorted(fibre) == sorted(sp.reassemble(t) for t in range(sp.alpha, sp.beta + 1))
        assert sum(map(len, fibres.values())) == len(all_paths(width, height))

    def test_bad_column_raises(self):
        p = LatticePath(2, 1, "HVH")
        with pytest.raises(ValueError):
            split_path_at_column(p, 2)
