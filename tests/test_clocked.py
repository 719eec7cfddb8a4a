import dataclasses
from fractions import Fraction

import pytest

from brute_force import brute_force_ostd, fraction_bfs
from ccpsd.clocked import (
    ClockedInputs,
    bfs_ostd,
    clocked_inputs_from_fstd,
    effective_run_bound,
)
from ccpsd.codebook import ConstraintFamily, enumerate_codebook, pair_counts
from ccpsd.cyclo import position_means
from ccpsd.fstd import build_grid_fstd
from ccpsd.ratfn import ZERO, RationalFn
from ccpsd.transfer import TransferMatrix

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


# lengths beyond the small sweep, where the BFS reference takes about 1 s
LONG = {("caloco", 1): [45], ("cloco", 1): [40]}


class TestIntegerMasses:
    """The run lists read from the eliminated diagram equal the
    Fraction-mass BFS reference."""

    @pytest.mark.parametrize("kind", ["caloco", "cloco"])
    @pytest.mark.parametrize("x", [1, 2])
    def test_equals_fraction_reference(self, kind, x):
        for m in [*range(2, 11), *LONG.get((kind, x), [])]:
            inputs = clocked_inputs_from_fstd(fstd_for(kind, x, m))
            got, want = bfs_ostd(inputs), fraction_bfs(inputs)
            assert got == want, m
            assert list(got) == list(want), m  # the same key order
            assert all(type(p) is Fraction for runs in got.values()
                       for _, p in runs)

    # caloco x=2 m=6 holds mass for all of its k_eff + 1 = 13 steps
    @pytest.mark.parametrize("kind,k_eff", [("caloco", 11), ("cloco", 4)])
    def test_short_bound_is_not_absorbed(self, kind, k_eff):
        inputs = clocked_inputs_from_fstd(fstd_for(kind, 2, 6))
        short = dataclasses.replace(inputs, k_eff=k_eff)
        with pytest.raises(ValueError) as want:
            fraction_bfs(short)
        with pytest.raises(ValueError, match="not absorbed") as got:
            bfs_ostd(short)
        assert str(got.value) == str(want.value)

    def test_lost_mass_fails_conservation(self):
        # half the mass leaves each state by no edge: 1/4 returns to state 0
        inputs = ClockedInputs(
            n=2, transitions=[(0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 2))],
            labeled=[True, False], k_eff=2)
        with pytest.raises(ValueError) as want:
            fraction_bfs(inputs)
        with pytest.raises(ValueError, match="source 0 total probability "
                                             "1/4 != 1") as got:
            bfs_ostd(inputs)
        assert str(got.value) == str(want.value)

    def test_unlabeled_cycle_is_not_absorbed(self):
        # state 1 returns to itself with probability 1/2, so the run 0 -> 0
        # has every length from 2 on: 1/4 of it is longer than 3 steps
        inputs = ClockedInputs(
            n=2, transitions=[(0, 1, Fraction(1)), (1, 1, Fraction(1, 2)),
                              (1, 0, Fraction(1, 2))],
            labeled=[True, False], k_eff=2)
        with pytest.raises(ValueError) as want:
            fraction_bfs(inputs)
        with pytest.raises(ValueError, match="probability 1/4 not absorbed "
                                             "within k_eff") as got:
            bfs_ostd(inputs)
        assert str(got.value) == str(want.value)


class TestDensityAtScale:
    """A check at m = 30 that does not go through the elimination: the
    matrix of the run lists has the density of ones that the automaton's
    counts give, the position means of the x signal over N^2 P."""

    @pytest.mark.parametrize("x", [1, 2])
    def test_prob_one_equals_position_means(self, x):
        fam = ConstraintFamily("caloco", x, 30)
        edges = bfs_ostd(clocked_inputs_from_fstd(
            build_grid_fstd(enumerate_codebook(fam))))
        n = 1 + max(max(key) for key in edges)
        entries = [[ZERO] * n for _ in range(n)]
        for (a, b), runs in edges.items():
            for t, p in runs:
                entries[a][b] = entries[a][b] + RationalFn.monomial(p, t)
        tm = TransferMatrix(fam, entries, list(range(n)), origin="bfs")
        n_words, ones = pair_counts(fam)[:2]
        period = fam.m + fam.x
        means = position_means(fam, "x", n_words, ones)
        assert tm.prob_one == Fraction(sum(means),
                                       n_words * n_words * period)
