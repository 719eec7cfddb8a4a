from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

# exact Fraction polynomial arithmetic is slow per case; relax hypothesis'
# per-example deadline and generation-speed health check
relaxed = settings(deadline=None, max_examples=50,
                   suppress_health_check=[HealthCheck.too_slow])

from ccpsd.ratfn import D, ONE, ZERO, RationalFn, poly_divmod, poly_gcd, solve


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
        assert f.derivative().evaluate(Fraction(1)) == Fraction(2)
        assert f.derivative().evaluate(Fraction(0)) == Fraction(1, 2)


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
