from fractions import Fraction

import pytest

from brute_force import euclid_canonical, horner
from ccpsd import presets, transfer
from ccpsd.codebook import ConstraintFamily, enumerate_codebook
from ccpsd.fstd import build_grid_fstd, build_infinite_fstd, reduce_to_ostd
from ccpsd.ratfn import RationalFn, D, ZERO
from ccpsd.transfer import (
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
            tm.check_nonnegative_series(40)


class TestFiniteClosedForms:
    PAIRS = [(3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (5, 3)]

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

    @pytest.mark.parametrize("maker", [closed_form_aloco, closed_form_loco_A])
    def test_entries_equal_gcd_built(self, maker, monkeypatch):
        # entries are canonical, as Euclid's gcd would reduce them
        cases = [(m, x) for x in (1, 2, 3) for m in range(x + 2, 13)]
        direct = [maker(m, x) for m, x in cases]
        monkeypatch.setattr(transfer, "_beta", beta)
        for (m, x), tm in zip(cases, direct):
            ref = maker(m, x)
            for row, ref_row in zip(tm.entries, ref.entries):
                for e, r in zip(row, ref_row):
                    assert e == r == RationalFn(e.num, e.den), (m, x)
                    assert (e.num, e.den) == euclid_canonical(e.num, e.den)


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
                    transfer.alternate_ax(x), transfer.alternate_sx(x))
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
    """G(1) and G'(1) from coefficient sums equal Horner evaluation at 1."""

    @pytest.mark.parametrize("matrices", [_finite_matrices, _stream_matrices],
                             ids=["finite_x3_m10", "streams_x6"])
    def test_matches_horner(self, matrices):
        for tm in matrices():
            want = [[_horner_at_one(e) for e in row] for row in tm.entries]
            assert tm.at_one() == [[v for v, _ in row] for row in want]
            assert tm.derivative_at_one() == [[s for _, s in row]
                                              for row in want]


class TestIid:
    def test_single_state(self):
        tm = iid_matrix()
        assert tm.n == 1
        assert tm.entries[0][0] == RationalFn([F(0), F(1)], [F(2), F(-1)])
        tm.check_stochastic()
