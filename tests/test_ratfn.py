import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

# exact Fraction polynomial arithmetic is slow per case; relax hypothesis'
# per-example deadline and generation-speed health check
relaxed = settings(deadline=None, max_examples=50,
                   suppress_health_check=[HealthCheck.too_slow])

from ccpsd.ratfn import (
    D, ONE, ZERO, RationalFn, poly_add, poly_derivative, poly_divmod, poly_gcd,
    poly_mul, poly_neg, solve,
)

from brute_force import dense_gauss_jordan, euclid_canonical, reference_op


def frac(n, d=1):
    return Fraction(n, d)


coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    min_size=1, max_size=5,
)


def nonzero_fns():
    return st.builds(
        lambda n, d: RationalFn(n, d),
        coeffs.filter(lambda c: any(c)),
        coeffs.filter(lambda c: any(c)),
    )


def fns():
    return st.one_of(st.just(ZERO), nonzero_fns())


class TestCanonicalization:
    def test_gcd_removed(self):
        a = RationalFn([0, 1, 1], [0, 0, 1, 1])  # (D + D^2) / (D^2 + D^3)
        b = RationalFn([1], [0, 1])  # 1 / D
        assert a == b

    def test_monic_denominator(self):
        a = RationalFn([2], [4])
        assert a.num == (Fraction(1, 2),)
        assert a.den == (Fraction(1),)

    def test_zero(self):
        assert RationalFn([0], [3]).is_zero()
        assert (ONE - ONE).is_zero()
        assert not (ONE - ONE) and D

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn([1], [0])


@st.composite
def shaped_polys(draw):
    """A nonzero polynomial shaped to reach each canonicalisation shortcut:
    a constant, a monomial, a power of D, or a general polynomial, times a
    power of D that the other operand may share."""
    c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6)
             .filter(bool))
    shape = draw(st.sampled_from(["const", "monomial", "d_power", "general"]))
    if shape == "const":
        p = [c]
    elif shape == "monomial":
        p = [0] * draw(st.integers(1, 3)) + [c]
    elif shape == "d_power":
        p = [0] * draw(st.integers(1, 3)) + [1]
    else:
        p = draw(coeffs.filter(any))
    return [0] * draw(st.integers(0, 2)) + p


@st.composite
def operand_pairs(draw):
    """(a, b) with b's numerator possibly zero and its denominator possibly
    a's own."""
    a = RationalFn(draw(shaped_polys()), draw(shaped_polys()))
    num = draw(st.one_of(st.just([]), shaped_polys()))
    den = a.den if draw(st.booleans()) else draw(shaped_polys())
    return a, RationalFn(num, den)


class TestShortcutsMatchEuclid:
    """Canonical forms equal those of plain cross-multiplication and Euclid."""

    @relaxed
    @given(shaped_polys(), shaped_polys())
    def test_constructor(self, num, den):
        f = RationalFn(num, den)
        assert (f.num, f.den) == euclid_canonical(num, den)

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(operand_pairs(), st.sampled_from(["+", "-", "*", "/"]))
    def test_operations(self, pair, op):
        apply = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv}[op]
        for left, right in (pair, pair[::-1]):
            if op == "/" and not right:
                continue
            got = apply(left, right)
            assert (got.num, got.den) == reference_op(
                op, (left.num, left.den), (right.num, right.den))


class TestArithmetic:
    @relaxed
    @given(fns(), fns(), fns())
    def test_distributive(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @relaxed
    @given(fns(), fns())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @relaxed
    @given(nonzero_fns())
    def test_multiplicative_inverse(self, a):
        assert a * (ONE / a) == ONE

    @relaxed
    @given(fns())
    def test_sub_self(self, a):
        assert (a - a).is_zero()

    def test_scalar_coercion(self):
        assert D * 2 == RationalFn([0, 2], [1])
        assert 1 / (2 - D) == RationalFn([1], [2, -1])


class TestEvaluation:
    @relaxed
    @given(fns(), fns())
    def test_evaluate_homomorphism(self, a, b):
        z = 0.3 + 0.4j
        try:
            va, vb, vab = a.evaluate(z), b.evaluate(z), (a * b).evaluate(z)
        except ZeroDivisionError:
            return
        assert abs(va * vb - vab) < 1e-9 * max(1.0, abs(va * vb))

    def test_exact_fraction_evaluation(self):
        f = RationalFn([0, 0, 0, 1], [2, -1])  # D^3 / (2 - D)
        assert f.evaluate(Fraction(1)) == Fraction(1)
        assert f.evaluate(Fraction(1, 2)) == Fraction(1, 12)

    def test_series_matches_geometric(self):
        g = RationalFn.geometric(Fraction(1, 4), 3, Fraction(1, 2), 1)
        s = g.series_coefficients(8)
        assert s[:3] == [0, 0, 0]
        assert s[3] == Fraction(1, 4)
        assert s[4] == Fraction(1, 8)
        assert s[7] == Fraction(1, 64)

    def test_series_requires_nonzero_den_at_zero(self):
        with pytest.raises(ValueError):
            RationalFn([1], [0, 1]).series_coefficients(3)


class TestSubstitution:
    @relaxed
    @given(nonzero_fns())
    def test_substitute_inverse_roundtrip(self, a):
        z = 0.7 - 0.2j
        try:
            direct = a.evaluate(1 / z)
            subbed = a.substitute_inverse().evaluate(z)
        except ZeroDivisionError:
            return
        assert abs(direct - subbed) < 1e-9 * max(1.0, abs(direct))

    def test_derivative_quotient_rule(self):
        f = D / (2 - D)
        # f'(z) = 2 / (2 - z)^2
        assert f.derivative_at(Fraction(1)) == Fraction(2)
        assert f.derivative_at(Fraction(0)) == Fraction(1, 2)

    @relaxed
    @given(fns(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
    def test_derivative_at_equals_quotient(self, f, z):
        num = poly_add(poly_mul(poly_derivative(f.num), f.den),
                       poly_neg(poly_mul(f.num, poly_derivative(f.den))))
        quotient = RationalFn(num, poly_mul(f.den, f.den))
        try:
            want = quotient.evaluate(z)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                f.derivative_at(z)
            return
        assert f.derivative_at(z) == want


class TestPolynomialHelpers:
    def test_divmod(self):
        q, r = poly_divmod(
            [Fraction(0), Fraction(0), Fraction(0), Fraction(-1, 2)],
            [Fraction(-2), Fraction(1)],
        )
        # check n = q*d + r
        num = [Fraction(0)] * 4
        for i, qi in enumerate(q):
            num[i] += qi * Fraction(-2)
            num[i + 1] += qi
        for i, ri in enumerate(r):
            num[i] += ri
        assert num == [Fraction(0), Fraction(0), Fraction(0), Fraction(-1, 2)]

    def test_gcd_monic(self):
        g = poly_gcd([Fraction(0), Fraction(2)], [Fraction(0), Fraction(0), Fraction(4)])
        assert g[-1] == 1


nonzero_fractions = st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4).filter(bool)
sparse_fractions = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                             nonzero_fractions)
# degree at most 2 over degree at most 2, so that 3 x 3 eliminations stay small
small_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    min_size=1, max_size=3).filter(any)
small_fns = st.builds(RationalFn, small_coeffs, small_coeffs)
sparse_fns = st.one_of(st.just(ZERO), st.just(ZERO), small_fns)


@st.composite
def sparse_systems(draw, entries, nonzero, max_n, width):
    """(a, b) with mostly zero entries and a nonzero permuted diagonal, so
    that a is usually regular and its pivots need row swaps."""
    n = draw(st.integers(1, max_n))
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i, j in enumerate(draw(st.permutations(range(n)))):
        a[i][j] = draw(nonzero)
    b = [[draw(entries) for _ in range(width)] for _ in range(n)]
    return a, b


class TestSolve:
    def test_fraction_system_with_row_swap(self):
        a = [[frac(0), frac(2)], [frac(3), frac(1)]]
        b = [[frac(4), frac(1)], [frac(5), frac(0)]]
        x = solve(a, b)
        for i in range(2):
            for r in range(2):
                assert sum(a[i][k] * x[k][r] for k in range(2)) == b[i][r]

    def test_rational_function_system(self):
        # (1 - D/2) v = 1 has the exact solution 2 / (2 - D)
        half_d = RationalFn.monomial(frac(1, 2), 1)
        [[v]] = solve([[ONE - half_d]], [[ONE]])
        assert v == RationalFn([2], [2, -1])

    @relaxed
    @given(sparse_systems(sparse_fractions, nonzero_fractions, 5, 2))
    def test_fraction_systems_match_dense(self, system):
        a, b = system
        try:
            want = dense_gauss_jordan(a, b)
        except StopIteration:  # singular
            return
        assert solve(a, b) == want

    @relaxed
    @given(sparse_systems(sparse_fns, small_fns, 3, 1))
    def test_rational_function_systems_match_dense(self, system):
        a, b = system
        try:
            want = dense_gauss_jordan(a, b)
        except StopIteration:  # singular
            return
        got = solve(a, b)
        assert [[(v.num, v.den) for v in row] for row in got] == \
            [[(v.num, v.den) for v in row] for row in want]

    def test_zero_pattern_with_row_swaps(self):
        # a permuted bidiagonal system: every column pivots on a swap
        a = [[frac(0), frac(0), frac(2)],
             [frac(1), frac(-1), frac(0)],
             [frac(0), frac(3), frac(1)]]
        b = [[frac(1)], [frac(0)], [frac(5)]]
        assert solve(a, b) == dense_gauss_jordan(a, b)


def _condition(p, z):
    """sum |c_k| |z|^k / |p(z)|: how much evaluating p at z magnifies
    rounding in its coefficients and arithmetic."""
    return (np.polyval([abs(float(c)) for c in reversed(p)], np.abs(z))
            / np.abs(np.polyval([float(c) for c in reversed(p)], z)))


class TestArrayEvaluate:
    @relaxed
    @given(nonzero_fns())
    def test_matches_scalar(self, a):
        z = np.exp(-2j * np.pi * (np.arange(32) + 0.5) / 64)
        try:
            want = np.array([complex(a.evaluate(complex(v))) for v in z])
        except ZeroDivisionError:
            return
        got = a.evaluate(z)
        assert got.shape == z.shape
        # numpy's and Python's complex arithmetic round differently in the
        # last bit; near a root of num or den the condition number magnifies
        # that, so the 1e-15 relative bound is scaled by it.
        kappa = _condition(a.num, z) + _condition(a.den, z)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want) * kappa)

    def test_zero_function(self):
        z = np.array([0.5, 1j, -1.0])
        assert np.array_equal(ZERO.evaluate(z), np.zeros(3))

    def test_pole_raises(self):
        f = ONE / (ONE - D)
        with pytest.raises(ZeroDivisionError):
            f.evaluate(np.array([0.5, 1.0, -1.0], dtype=complex))
