from fractions import Fraction

import pytest

from brute_force import brute_force_ostd
from ccpsd.clocked import (
    bfs_ostd,
    clocked_inputs_from_fstd,
    effective_run_bound,
)
from ccpsd.codebook import ConstraintFamily, enumerate_codebook
from ccpsd.fstd import build_grid_fstd

PAIRS = [("caloco", 1, 2), ("caloco", 1, 3), ("caloco", 2, 2)]


def fstd_for(kind, x, m):
    return build_grid_fstd(enumerate_codebook(ConstraintFamily(kind, x, m)))


class TestSearchOstd:
    @pytest.mark.parametrize("kind,x,m", PAIRS)
    def test_matches_brute_force(self, kind, x, m):
        f = fstd_for(kind, x, m)
        got = bfs_ostd(clocked_inputs_from_fstd(f))
        ref = brute_force_ostd(f, effective_run_bound(m, x) + 1)
        assert {k: sorted(v) for k, v in got.items()} == ref

    @pytest.mark.parametrize("kind,x,m", PAIRS)
    def test_conservation(self, kind, x, m):
        edges = bfs_ostd(clocked_inputs_from_fstd(fstd_for(kind, x, m)))
        sources = {src for src, _ in edges}
        for j in sources:
            tot = sum((p for (a, _), runs in edges.items() if a == j
                       for _, p in runs), Fraction(0))
            assert tot == 1

    @pytest.mark.parametrize("kind,x,m", PAIRS)
    def test_run_lengths_within_bound(self, kind, x, m):
        edges = bfs_ostd(clocked_inputs_from_fstd(fstd_for(kind, x, m)))
        bound = effective_run_bound(m, x) + 1
        for runs in edges.values():
            assert max(t for t, _ in runs) <= bound

    def test_bound_value(self):
        assert effective_run_bound(2, 1) == 3
        assert effective_run_bound(3, 1) == 5
        assert effective_run_bound(2, 2) == 4

    def test_rejects_unbounded_families(self):
        f = build_grid_fstd(enumerate_codebook(ConstraintFamily("aloco", 1, 3)))
        with pytest.raises(ValueError):
            clocked_inputs_from_fstd(f)
