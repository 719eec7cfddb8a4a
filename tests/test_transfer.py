import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import (
    alternate_ax,
    alternate_sx,
    check_nonnegative_series,
    derivative_at,
    euclid_canonical,
    fraction_check_stochastic,
    fraction_prob_one,
    fraction_reduce_states,
    fraction_stationary,
    horner,
)
from ccpsd import presets, transfer
from ccpsd.clocked import bfs_ostd, clocked_inputs_from_fstd
from ccpsd.codebook import (
    CLOCKED_KINDS,
    ConstraintFamily,
    alpha,
    enumerate_codebook,
    group_cardinalities,
    zeta,
)
from ccpsd.fstd import build_grid_fstd, build_infinite_fstd, reduce_to_ostd
from ccpsd.ratfn import RationalFn, D, ZERO
from ccpsd.transfer import (
    MATRIX_SLOT_LIMIT,
    TransferMatrix,
    _stream_order,
    closed_form_aloco,
    closed_form_ax,
    closed_form_loco_A,
    closed_form_sx,
    iid_matrix,
    ostm_from_ostd,
)

F = Fraction


def mono(c, t):
    return RationalFn.monomial(F(c), t)


def beta(a, b, n_total, period):
    """a * D**b / (n_total - D**period)"""
    num = [F(0)] * b + [F(a)]
    den = [F(n_total)] + [F(0)] * (period - 1) + [F(-1)]
    return RationalFn(num, den)


class TestInfiniteClosedForms:
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_ax_matches_grid(self, x):
        fam = ConstraintFamily("ax", x)
        grid = ostm_from_ostd(reduce_to_ostd(build_infinite_fstd(fam)))
        assert closed_form_ax(x) == grid

    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_sx_matches_grid(self, x):
        fam = ConstraintFamily("sx", x)
        grid = ostm_from_ostd(reduce_to_ostd(build_infinite_fstd(fam)))
        assert closed_form_sx(x) == grid

    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_stochastic_and_nonnegative(self, x):
        for tm in (closed_form_ax(x), closed_form_sx(x)):
            tm.check_stochastic()
            check_nonnegative_series(tm, 40)


class TestFiniteClosedForms:
    # (40, 2) and (100, 1) take the grid route past the m <= 12 of the
    # route sweep
    PAIRS = [(3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (5, 3), (40, 2),
             (100, 1)]

    @pytest.mark.parametrize("m,x", PAIRS)
    def test_aloco_matches_grid(self, m, x):
        cb = enumerate_codebook(ConstraintFamily("aloco", x, m))
        grid = ostm_from_ostd(reduce_to_ostd(build_grid_fstd(cb)))
        assert closed_form_aloco(m, x) == grid

    @pytest.mark.parametrize("m,x", PAIRS)
    def test_loco_matches_grid(self, m, x):
        cb = enumerate_codebook(ConstraintFamily("loco", x, m))
        grid = ostm_from_ostd(reduce_to_ostd(build_grid_fstd(cb)))
        assert closed_form_loco_A(m, x) == grid

    def test_aloco_4_1_entries(self):
        """Every entry of the clock-recoverable (m=4, x=1) matrix, written out."""
        tm = closed_form_aloco(4, 1)
        b = lambda a, p: beta(a, p, 12, 5)
        want = [
            [b(1, 5), mono(F(3, 5), 1) + b(F(3, 5), 6), b(F(2, 5), 7),
             mono(F(1, 5), 3) + b(F(1, 5), 8), ZERO],
            [b(F(5, 3), 4), b(1, 5), mono(F(2, 3), 1) + b(F(2, 3), 6),
             b(F(1, 3), 7), ZERO],
            [b(F(5, 2), 3), b(F(3, 2), 4), b(1, 5),
             mono(F(1, 2), 1) + b(F(1, 2), 6), ZERO],
            [b(F(5, 12), 7), b(3, 3), b(2, 4), b(1, 5), mono(F(5, 12), 1)],
            [D, ZERO, ZERO, ZERO, ZERO],
        ]
        assert [[tm.entries[i][j] for j in range(5)] for i in range(5)] == want

    def test_loco_4_1_entries(self):
        """Every nonzero entry of the (m=4, x=1) fixed-length matrix."""
        tm = closed_form_loco_A(4, 1)
        want = {
            (0, 1): mono(F(3, 5), 1), (0, 6): mono(F(1, 5), 3),
            (0, 7): mono(F(1, 5), 4),
            (1, 2): mono(F(2, 3), 1), (1, 7): mono(F(1, 3), 3),
            (2, 3): mono(F(1, 2), 1), (2, 7): mono(F(1, 2), 2),
            (3, 7): D, (4, 2): D, (5, 3): D, (6, 7): D,
            (7, 0): mono(F(1, 2), 1), (7, 4): mono(F(1, 5), 2),
            (7, 5): mono(F(1, 10), 3), (7, 6): mono(F(1, 10), 4),
            (7, 7): mono(F(1, 10), 5),
        }
        assert tm.n == 8
        for i in range(8):
            for j in range(8):
                assert tm.entries[i][j] == want.get((i, j), ZERO), (i, j)

    def test_requires_m_at_least_x_plus_2(self):
        with pytest.raises(ValueError):
            closed_form_aloco(3, 2)

    def test_aloco_beyond_enumeration_limit(self):
        # the closed form needs only group cardinalities, never the codebook
        assert closed_form_aloco(32, 1).check_stochastic()

    # every m <= 12 for x <= 3, and two past the grid sweep
    ALOCO_CASES = [(m, x) for x in (1, 2, 3) for m in range(x + 2, 13)] + [
        (60, 1), (40, 2)]

    @pytest.mark.parametrize("m,x", ALOCO_CASES)
    def test_aloco_entries_equal_generic_built(self, m, x):
        # the integer-built entries equal the paper's monomials plus
        # geometric tails, summed by the generic arithmetic, and are as
        # Euclid's gcd reduces them (checked on the first and last word
        # rows past m = 12, which hold every kind of entry)
        tm = closed_form_aloco(m, x)
        assert tm.entries == aloco_reference(m, x)
        rows = tm.entries if m <= 12 else (tm.entries[0], tm.entries[m - 1])
        for row in rows:
            for e in row:
                assert e == RationalFn(e.num, e.den)
                assert (e.num, e.den) == euclid_canonical(e.num, e.den)

    @pytest.mark.parametrize("m,x", ALOCO_CASES)
    def test_aloco_statistics_equal_solved(self, m, x):
        # pi and p1 from the position means equal those of the solve
        tm = closed_form_aloco(m, x)
        solved = replace(tm, visits=None)
        assert tm.stationary == solved.stationary == fraction_stationary(tm)
        assert all(type(p) is F for p in tm.stationary)
        assert tm.prob_one == solved.prob_one == fraction_prob_one(tm)

    @pytest.mark.parametrize("x", [1, 2, 3, 4])
    def test_loco_statistics_equal_solved(self, x, monkeypatch):
        # pi and p1 from the visit counts equal those of the Fraction solve,
        # and no state is reduced for them
        def no_reduction(g1):
            raise AssertionError("reduced")

        for m in range(x + 2, 31):
            tm = closed_form_loco_A(m, x)
            with monkeypatch.context() as patch:
                patch.setattr(transfer, "reduce_states", no_reduction)
                pi, p1 = tm.stationary, tm.prob_one
            assert pi == fraction_stationary(tm), m
            assert all(type(p) is F for p in pi)
            assert p1 == fraction_prob_one(tm), m

    def test_loco_entries_equal_gcd_built(self):
        # entries are canonical, as Euclid's gcd would reduce them
        for x in (1, 2, 3):
            for m in range(x + 2, 13):
                for row in closed_form_loco_A(m, x).entries:
                    for e in row:
                        assert e == RationalFn(e.num, e.den), (m, x)
                        assert (e.num, e.den) == euclid_canonical(e.num,
                                                                  e.den)


class TestGridVisits:
    """A finite family's grid matrix counts its visits from forward masses;
    every matrix without counts reduces its states.  Both equal the
    references, and each other where both apply."""

    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["aloco", "loco", "caloco", "cloco"])
    def test_grid_visits_equal_references(self, kind, x):
        for m in range(2, 13):
            tm = presets.transfer_matrix_for(ConstraintFamily(kind, x, m),
                                             "grid")
            assert tm.visits is not None
            assert tm.stationary == fraction_stationary(tm), m
            assert all(type(p) is F for p in tm.stationary)
            assert tm.prob_one == fraction_prob_one(tm), m

    def test_grid_visits_equal_reduction_at_length(self):
        tm = presets.transfer_matrix_for(ConstraintFamily("caloco", 1, 60),
                                         "grid")
        reduced = replace(tm, visits=None)
        assert tm.stationary == reduced.stationary
        assert tm.prob_one == reduced.prob_one

    @pytest.mark.parametrize("x", [1, 2, 3, 5, 8, 20, 80])
    @pytest.mark.parametrize("kind,closed", [("ax", closed_form_ax),
                                             ("sx", closed_form_sx)])
    def test_reduction_equals_reference_on_stream_grids(self, kind, closed,
                                                        x):
        tm = presets.transfer_matrix_for(ConstraintFamily(kind, x), "grid")
        assert tm.visits is None
        assert tm.stationary == fraction_stationary(tm) \
            == closed(x).stationary
        assert tm.prob_one == fraction_prob_one(tm) == closed(x).prob_one

    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(CLOCKED_KINDS))
    def test_reduction_equals_reference_on_bfs_matrices(self, kind, x):
        # a BFS matrix keeps the grid's labeled states in the grid's order
        for m in range(2, 11):
            fam = ConstraintFamily(kind, x, m)
            tm = _bfs_matrix(fam)
            grid = presets.transfer_matrix_for(fam, "grid")
            assert tm.stationary == fraction_stationary(tm) \
                == grid.stationary, m
            assert tm.prob_one == fraction_prob_one(tm) == grid.prob_one, m


def aloco_reference(m, x):
    """Entries of ``closed_form_aloco`` as the paper writes them: word to
    word, a monomial where the run can close directly plus the geometric
    tail beta over later periods, with the continuation ratios multiplied
    out here."""
    fam = ConstraintFamily("aloco", x, m)
    n_words, period, z = group_cardinalities(fam, m)[0], m + x, zeta(fam)

    def chain(d, g):
        """Product of 1 - alpha_c for c = d down to d - g."""
        out = F(1)
        for c in range(d - g, d + 1):
            out *= 1 - alpha(fam, c)
        return out

    def b(a, power):
        return beta(a, power, n_words, period)

    n = m + x
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i == m and j == 1:
                val = b(z, m + 2 * x + 1)
            elif j == i:
                val = b(1, period)
            elif j == i + 1 or j > i + 1 + x:
                lc = chain(m + 1 - i, j - i - 1)
                val = mono(lc, j - i) + b(lc, period + j - i)
            elif j > i:
                val = b(chain(m + 1 - i, j - i - 1), period + j - i)
            else:
                val = b(1 / chain(m + 1 - j, i - j - 1), period + j - i)
            entries[i - 1][j - 1] = val
    entries[m - 1][m] = mono(z, 1)
    for k in range(1, x):
        entries[m + k - 1][m + k] = D
    entries[m + x - 1][0] = D
    return tuple(tuple(row) for row in entries)


def _finite_matrices():
    for x in (1, 2, 3):
        for m in range(2, 11):
            if m >= x + 2:
                yield closed_form_aloco(m, x)
                yield closed_form_loco_A(m, x)
            for kind in ("aloco", "loco", "caloco", "cloco"):
                yield presets.transfer_matrix_for(ConstraintFamily(kind, x, m),
                                                  "grid")


def _stream_matrices():
    for x in range(1, 7):
        yield from (closed_form_ax(x), closed_form_sx(x),
                    alternate_ax(x), alternate_sx(x))
        for kind in ("ax", "sx"):
            yield presets.transfer_matrix_for(ConstraintFamily(kind, x), "grid")


def _horner_at_one(e):
    """(R(1), R'(1)) by Horner's rule and the quotient rule."""
    one = F(1)
    n, d = horner(e.num, one), horner(e.den, one)
    dn = horner([i * c for i, c in enumerate(e.num)][1:], one)
    dd = horner([i * c for i, c in enumerate(e.den)][1:], one)
    return n / d, (dn * d - n * dd) / (d * d)


class TestAtOne:
    """Each entry's value and slope at 1, from coefficient sums, equal
    Horner evaluation at 1."""

    @pytest.mark.parametrize("matrices", [_finite_matrices, _stream_matrices],
                             ids=["finite_x3_m10", "streams_x6"])
    def test_matches_horner(self, matrices):
        for tm in matrices():
            for row in tm.entries:
                for e in row:
                    assert (e.evaluate(1), derivative_at(e, 1)) \
                        == _horner_at_one(e)


class TestIid:
    def test_single_state(self):
        tm = iid_matrix()
        assert tm.n == 1
        assert tm.entries[0][0] == RationalFn([F(0), F(1)], [F(2), F(-1)])
        tm.check_stochastic()


def _bfs_matrix(fam):
    """Transfer matrix of the clocked BFS run-length distributions."""
    inputs = clocked_inputs_from_fstd(build_grid_fstd(enumerate_codebook(fam)))
    n = sum(inputs.labeled)
    entries = [[ZERO] * n for _ in range(n)]
    for (a, b), runs in bfs_ostd(inputs).items():
        for steps, p in runs:
            entries[a][b] = entries[a][b] + RationalFn.monomial(p, steps)
    return TransferMatrix(fam, entries, list(range(n)), origin="bfs")


def _closed_to_m12():
    for x in (1, 2):
        for m in range(x + 2, 13):
            yield closed_form_aloco(m, x)
            yield closed_form_loco_A(m, x)


def _grid_to_m8():
    for x in (1, 2):
        for m in range(2, 9):
            for kind in ("aloco", "loco", "caloco", "cloco"):
                yield presets.transfer_matrix_for(ConstraintFamily(kind, x, m),
                                                  "grid")


def _bfs_to_m8():
    for x in (1, 2):
        for m in range(2, 9):
            for kind in sorted(CLOCKED_KINDS):
                yield _bfs_matrix(ConstraintFamily(kind, x, m))


def _streams_and_iid():
    yield from _stream_matrices()
    yield iid_matrix()


class TestExactStatistics:
    """pi, p1 and the stochastic check over integer rows equal the
    Fraction-entry references, value for value."""

    @pytest.mark.parametrize("matrices", [_closed_to_m12, _grid_to_m8,
                                          _bfs_to_m8, _streams_and_iid],
                             ids=["closed_x2_m12", "grid_x2_m8", "bfs_x2_m8",
                                  "streams_x6_iid"])
    def test_equal_fraction_references(self, matrices):
        count = 0
        for tm in matrices():
            pi = tm.stationary
            assert pi == fraction_stationary(tm)
            assert all(type(p) is F for p in pi)
            assert tm.prob_one == fraction_prob_one(tm)
            assert type(tm.prob_one) is F
            assert tm.check_stochastic() is fraction_check_stochastic(tm)
            count += 1
        assert count > 0

    @pytest.mark.parametrize("entries", [
        [[mono(F(1, 2), 1), mono(F(1, 3), 2)], [D, ZERO]],
        [[D, ZERO], [mono(F(1, 2), 1), mono(F(2, 3), 1)]],
        [[RationalFn([F(0), F(1)], [F(3), F(-1)])]],
    ], ids=["short_row_0", "long_row_1", "one_state"])
    def test_non_stochastic_message(self, entries):
        tm = TransferMatrix(ConstraintFamily("iid", 0), entries,
                            list(range(len(entries))))
        with pytest.raises(ValueError) as want:
            fraction_check_stochastic(tm)
        with pytest.raises(ValueError, match="of G\\(1\\) sums to") as got:
            tm.check_stochastic()
        assert str(got.value) == str(want.value)

    def test_zero_entries_stay_int_zero(self):
        # G(1) keeps the int 0 where an entry is zero, and the check sums
        # only the nonzero entries
        tm = closed_form_loco_A(8, 1)
        g1 = tm._g1
        assert all(type(v) is int and v == 0
                   for e, row in zip(tm.entries, g1)
                   for f, v in zip(e, row) if not f)
        assert all(type(v) is F for row in g1 for v in row if v)
        assert tm.check_stochastic()

    def test_reducible_matrix_names_column(self):
        # two absorbing states: every pi on the line pi_0 + pi_1 = 1 is
        # stationary, and state 1 sends no mass to state 0
        tm = TransferMatrix(ConstraintFamily("iid", 0), [[D, ZERO], [ZERO, D]],
                            ["a", "b"])
        tm.check_stochastic()
        with pytest.raises(ValueError, match="state 1 has no mass"):
            tm.stationary

    def test_transient_state_is_refused(self):
        # state 0 is transient and pi = (0, 1) is unique, but G(1) is not
        # irreducible: state 1 sends no mass to state 0
        half = mono(F(1, 2), 1)
        tm = TransferMatrix(ConstraintFamily("iid", 0), [[half, half],
                                                         [ZERO, D]],
                            ["a", "b"])
        tm.check_stochastic()
        with pytest.raises(ValueError, match="not irreducible: state 1"):
            tm.stationary



@st.composite
def irreducible_g1(draw):
    """G(1) of n states as rows of ``Fraction``s and int zeros: random
    weights, self-loops included, plus one on a cycle through every state
    in a random order, each row over its own sum."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    weight = st.one_of(st.just(0), st.integers(1, 9), st.integers(1, 10**9))
    rows = [draw(st.lists(weight, min_size=n, max_size=n)) for _ in range(n)]
    for a, b in zip(order, order[1:] + order[:1]):
        rows[a][b] += 1
    return [[F(w, sum(row)) if w else 0 for w in row] for row in rows]


class TestIntegerReduction:
    """State reduction runs on integer rows; pi and p1 equal the
    ``Fraction`` reduction's, value for value and type for type."""

    @staticmethod
    def _assert_reference(tm):
        pi = fraction_reduce_states(tm._g1)
        assert tm.stationary == pi
        assert all(type(p) is F for p in tm.stationary)
        assert tm.prob_one == fraction_prob_one(tm, pi)
        assert type(tm.prob_one) is F

    @pytest.mark.parametrize("x", [1, 2])
    @pytest.mark.parametrize("kind", sorted(CLOCKED_KINDS))
    def test_bfs_matrices_equal_reference(self, kind, x):
        for m in range(2, 9):
            tm = _bfs_matrix(ConstraintFamily(kind, x, m))
            assert tm.visits is None
            self._assert_reference(tm)

    @pytest.mark.parametrize("x", [1, 2, 3, 5, 8, 20, 80])
    @pytest.mark.parametrize("kind", ["ax", "sx"])
    def test_stream_grids_equal_reference(self, kind, x):
        tm = presets.transfer_matrix_for(ConstraintFamily(kind, x), "grid")
        assert tm.visits is None
        self._assert_reference(tm)

    @settings(max_examples=200, deadline=None)
    @given(irreducible_g1())
    def test_random_irreducible_matrices(self, g1):
        pi = transfer.reduce_states(g1)
        tm = TransferMatrix(ConstraintFamily("iid", 0),
                            [[RationalFn.monomial(v, 1) if v else ZERO
                              for v in row] for row in g1],
                            list(range(len(g1))))
        assert pi == fraction_reduce_states(g1) == fraction_stationary(tm)
        assert all(type(p) is F for p in pi)
        n = len(g1)
        assert all(sum(pi[i] * g1[i][j] for i in range(n)) == pi[j]
                   for j in range(n))

    def test_reference_refuses_reducible_matrices(self):
        # the reference and the reduction fail on the same state
        for g1 in ([[1, 0], [0, 1]], [[F(1, 2), F(1, 2)], [0, 1]],
                   [[0, 1, 0], [1, 0, 0], [0, 0, 1]]):
            with pytest.raises(ValueError) as want:
                fraction_reduce_states(g1)
            with pytest.raises(ValueError, match="not irreducible") as got:
                transfer.reduce_states(g1)
            assert str(got.value) == str(want.value)


class TestStreamMatrixLimit:
    """A stream closed form whose dense matrix exceeds the slot limit is
    refused before it is allocated; every x up to the limit is taken."""

    @pytest.mark.parametrize("closed", [closed_form_ax, closed_form_sx])
    def test_over_the_limit_fails_at_once(self, closed):
        x = isqrt(MATRIX_SLOT_LIMIT)  # (x + 1)^2 > MATRIX_SLOT_LIMIT
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than the limit of"):
            closed(x)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    @pytest.mark.parametrize("x", [1, 5000, isqrt(MATRIX_SLOT_LIMIT) - 1])
    def test_limit_takes_measured_sizes(self, x):
        for kind in ("ax", "sx"):
            assert _stream_order(ConstraintFamily(kind, x)) == x + 1
