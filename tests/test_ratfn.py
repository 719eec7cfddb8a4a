import operator
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

# exact Fraction polynomial arithmetic is slow per case; relax hypothesis'
# per-example deadline and generation-speed health check
relaxed = settings(deadline=None, max_examples=50,
                   suppress_health_check=[HealthCheck.too_slow])

from ccpsd.ratfn import (
    D, ONE, ZERO, HornerStack, RationalFn, _divide_exact, _gcd, _mul,
    eliminate, over_lcm, sum_at_one,
)

from brute_force import (
    dense_gauss_jordan, derivative_at, euclid_canonical,
    ref_add, ref_derivative, ref_mul, reference_op,
)


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
        assert not RationalFn([0], [3])
        assert not (ONE - ONE) and D

    def test_sum_cancels_part_of_a_shared_factor(self):
        # (D-3)/((1-D)(2-D)) + 4/((1-D)(3-D)) = -(1-D)^2 / ((1-D)(2-D)(3-D))
        a = RationalFn([-3, 1], ref_mul([1, -1], [2, -1]))
        b = RationalFn([4], ref_mul([1, -1], [3, -1]))
        assert a + b == RationalFn([-1, 1], ref_mul([2, -1], [3, -1]))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn([1], [0])

    def test_no_fraction_arithmetic(self, monkeypatch):
        # the kernel runs on ints: Fraction only carries inputs and results
        a = RationalFn([frac(1, 3), 0, frac(-2, 5)], [frac(3, 2), frac(-1, 7)])
        b = RationalFn([frac(0), frac(5, 4)], [frac(1, 2), 0, frac(1, 3)])

        def forbidden(*args):
            raise AssertionError("Fraction arithmetic")

        for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
            monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
            monkeypatch.setattr(Fraction, f"__r{op}__", forbidden)
        monkeypatch.setattr(Fraction, "__neg__", forbidden)
        c = RationalFn([frac(2, 3), frac(1, 6)], [frac(-4, 9), frac(2, 3)])
        for v in (a + b, a - b, a * b, a / b, 1 - a, c, c.substitute_inverse()):
            v.evaluate(1)
            derivative_at(v, 1)


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
    a's own or a multiple of it."""
    a = RationalFn(draw(shaped_polys()), draw(shaped_polys()))
    num = draw(st.one_of(st.just([]), shaped_polys()))
    den = draw(st.sampled_from(["own", "multiple", "other"]))
    if den == "own":
        den = a.den
    elif den == "multiple":
        den = ref_mul(a.den, draw(shaped_polys()))
    else:
        den = draw(shaped_polys())
    return a, RationalFn(num, den)


def assert_integer_form(f):
    """The stored parts n / (c d): c > 0 coprime to the content of n, d
    primitive with a positive leading coefficient and coprime to n."""
    n, c, d = f._n, f._c, f._d
    assert all(isinstance(v, int) for v in n + (c,) + d)
    assert c > 0 and gcd(c, *n) == 1
    assert gcd(*d) == 1 and d[-1] > 0
    if n:
        assert len(euclid_canonical(n, d)[1]) == len(d)


class TestShortcutsMatchEuclid:
    """Canonical forms equal those of plain cross-multiplication and Euclid."""

    @relaxed
    @given(shaped_polys(), shaped_polys())
    def test_constructor(self, num, den):
        f = RationalFn(num, den)
        assert (f.num, f.den) == euclid_canonical(num, den)

    @relaxed
    @given(st.fractions(min_value=-4, max_value=4, max_denominator=6),
           st.integers(0, 3),
           st.fractions(min_value=-4, max_value=4, max_denominator=6),
           st.integers(1, 3))
    def test_geometric(self, c0, b, ratio, period):
        # c0 D^b / (1 - ratio D^period), the shape of a run-length tail
        num = [0] * b + [c0]
        den = [1] + [0] * (period - 1) + [-ratio]
        g = RationalFn(num, den)
        assert (g.num, g.den) == euclid_canonical(num, den)
        assert_integer_form(g)

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
            reference = reference_op(
                op, (left.num, left.den), (right.num, right.den))
            assert (got.num, got.den) == reference
            # entry_stack dedupes transfer-matrix entries by hash
            assert hash(got) == hash(RationalFn(*reference))
            assert_integer_form(got)


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
        assert not a - a

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
        g = RationalFn([0, 0, 0, Fraction(1, 4)], [1, Fraction(-1, 2)])
        s = g.series_coefficients(8)
        assert s[:3] == [0, 0, 0]
        assert s[3] == Fraction(1, 4)
        assert s[4] == Fraction(1, 8)
        assert s[7] == Fraction(1, 64)

    @relaxed
    @given(st.lists(fns(), max_size=4))
    def test_sum_at_one_equals_evaluate(self, row):
        try:
            want = sum((f.evaluate(1) for f in row), Fraction(0))
        except ZeroDivisionError:
            return
        got = sum_at_one(row)
        assert got == want and type(got) is Fraction

    @relaxed
    @given(fns())
    def test_terms_are_the_nonzero_coefficients(self, f):
        terms = f.terms()
        if f.den != (1,):
            assert terms is None
            return
        assert terms == [(t, c) for t, c in enumerate(f.num) if c]
        assert all(type(c) is Fraction for _, c in terms)

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
        assert derivative_at(f, Fraction(1)) == Fraction(2)
        assert derivative_at(f, Fraction(0)) == Fraction(1, 2)

    @relaxed
    @given(fns(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
    def test_derivative_at_equals_quotient(self, f, z):
        num = ref_add(ref_mul(ref_derivative(f.num), f.den),
                      [-c for c in ref_mul(f.num, ref_derivative(f.den))])
        quotient = RationalFn(num, ref_mul(f.den, f.den))
        try:
            want = quotient.evaluate(z)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                derivative_at(f, z)
            return
        assert derivative_at(f, z) == want


int_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(
    lambda c: tuple(c)).filter(lambda c: c[-1] != 0)


class TestPolynomialHelpers:
    """The integer gcd and exact division behind every canonical form."""

    def test_divmod(self):
        # 8 - D^3 = (D - 2)(-4 - 2 D - D^2)
        q = _divide_exact((8, 0, 0, -1), (-2, 1))
        assert q == (-4, -2, -1)
        assert _divide_exact((0, 0, 3, 6), (0, 1, 2)) == (0, 3)

    def test_gcd_monic(self):
        assert _gcd((0, 2), (0, 0, 4)) == (0, 1)
        assert _gcd((-6, 0, 6), (3, 3)) == (1, 1)

    @given(st.lists(st.fractions(min_value=-4, max_value=4,
                                 max_denominator=12), max_size=6))
    def test_over_lcm_keeps_each_value(self, values):
        nums, scale = over_lcm((v.numerator, v.denominator) for v in values)
        assert scale == lcm(*(v.denominator for v in values))
        assert all(type(v) is int for v in nums)
        assert [Fraction(v, scale) for v in nums] == values

    def test_over_lcm_of_unreduced_parts(self):
        # 2/4 and 3/6 stay over lcm(4, 6) = 12 without being reduced first
        assert over_lcm([(2, 4), (3, 6), (-1, 1)]) == ([6, 6, -12], 12)

    @relaxed
    @given(int_polys, int_polys, int_polys)
    def test_gcd_against_euclid(self, a, b, common):
        # a common factor makes the gcd nontrivial
        a, b = _mul(a, common), _mul(b, common)
        g = _gcd(a, b)
        assert gcd(*g) == 1 and g[-1] > 0
        qa, qb = _divide_exact(a, g), _divide_exact(b, g)
        assert _mul(qa, g) == a and _mul(qb, g) == b
        # what is left is coprime: Euclid over Fractions cancels nothing
        num, den = euclid_canonical(qa, qb)
        assert len(num) == len(qa) and len(den) == len(qb)


# degree at most 2 over degree at most 2, so that 3 x 3 eliminations stay small
small_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    min_size=1, max_size=3).filter(any)


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


# entries divisible by D, as those of a transfer matrix: D f with f(0) finite
loop_fns = st.builds(lambda n, d: D * RationalFn(n, d), small_coeffs,
                     small_coeffs.filter(lambda c: c[0] != 0))
sparse_loop_fns = st.one_of(st.just(ZERO), st.just(ZERO), loop_fns)


def _graph(w, b):
    """The graph of (I - W) v = b: edges W, each state i joined to a sink
    "T" by b_i, and a source ("S", i) joined to state i by 1, so that the
    edge ("S", i) -> "T" left once the states are eliminated is v_i."""
    n = len(w)
    out = {i: {j: e for j, e in enumerate(row) if e} for i, row in enumerate(w)}
    for i in range(n):
        if b[i][0]:
            out[i]["T"] = b[i][0]
        out[("S", i)] = {i: ONE}
    return out


class TestEliminate:
    def test_one_state_loop(self):
        # (1 - D/2) v = 1 has the exact solution 2 / (2 - D)
        out = _graph([[RationalFn.monomial(frac(1, 2), 1)]], [[ONE]])
        eliminate(out, [0])
        assert out == {("S", 0): {"T": RationalFn([2], [2, -1])}}

    @relaxed
    @given(sparse_systems(sparse_loop_fns, loop_fns, 3, 1), st.randoms())
    def test_matches_dense(self, system, rnd):
        # I - W is regular: its determinant is 1 at D = 0
        w, b = system
        n = len(w)
        a = [[(ONE if i == j else ZERO) - w[i][j] for j in range(n)]
             for i in range(n)]
        want = dense_gauss_jordan(a, b)
        order = list(range(n))
        rnd.shuffle(order)  # canonical results: the order changes nothing
        out = _graph(w, b)
        eliminate(out, order)
        assert [out[("S", i)].get("T", ZERO) for i in range(n)] == \
            [row[0] for row in want]

    def test_loop_of_one_raises(self):
        # 1 - w = 0: a loop that is not divisible by D has no geometric sum
        out = _graph([[ONE, D], [D, ZERO]], [[ONE], [ONE]])
        with pytest.raises(ZeroDivisionError):
            eliminate(out, [0, 1])


def _condition(p, z):
    """sum |c_k| |z|^k / |p(z)|: how much evaluating p at z magnifies
    rounding in its coefficients and arithmetic."""
    return (np.polyval([abs(float(c)) for c in reversed(p)], np.abs(z))
            / np.abs(np.polyval([float(c) for c in reversed(p)], z)))


class TestArrayEvaluate:
    @relaxed
    @given(nonzero_fns())
    def test_matches_scalar(self, a):
        # One float kernel: a point alone gives the value it gives within an
        # array, bit for bit on the real axis.  At complex points numpy's
        # vector loop may round a product differently in the last bit from
        # its one-element loop; near a root of num or den the condition
        # number magnifies that, so the 1e-15 relative bound is scaled by it.
        for z in (np.linspace(-0.9, 0.9, 32),
                  np.exp(-2j * np.pi * (np.arange(32) + 0.5) / 64)):
            try:
                got = a.evaluate(z)
            except ZeroDivisionError:
                continue
            assert got.shape == z.shape
            want = np.array([a.evaluate(v) for v in z])
            if z.dtype == float:
                assert _same_bits(got, want)
                continue
            kappa = _condition(a.num, z) + _condition(a.den, z)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want) * kappa)

    @relaxed
    @given(nonzero_fns())
    def test_real_part_matches_scalar(self, a):
        # in real arithmetic a complex point alone gives the real part it
        # gives within an array bit for bit, and near the complex kernel's
        z = np.exp(-2j * np.pi * (np.arange(32) + 0.5) / 64)
        try:
            got = a.evaluate(z, real=True)
            full = a.evaluate(z)
        except ZeroDivisionError:
            return
        assert got.dtype == float and got.shape == z.shape
        alone = np.array([a.evaluate(v, real=True) for v in z])
        assert _same_bits(got, alone)
        kappa = _condition(a.num, z) + _condition(a.den, z)
        assert np.all(np.abs(got - full.real)
                      <= 1e-15 * np.abs(full) * kappa)

    def test_point_gives_a_numpy_scalar(self):
        f = ONE / (ONE - D)
        assert f.evaluate(0.5) == np.float64(2.0)
        assert np.isscalar(f.evaluate(0.5)) and np.isscalar(f.evaluate(1j))
        with pytest.raises(ZeroDivisionError):
            f.evaluate(1.0)

    def test_zero_function(self):
        z = np.array([0.5, 1j, -1.0])
        assert np.array_equal(ZERO.evaluate(z), np.zeros(3))

    def test_pole_raises(self):
        f = ONE / (ONE - D)
        with pytest.raises(ZeroDivisionError):
            f.evaluate(np.array([0.5, 1.0, -1.0], dtype=complex))


def _same_bits(a, b):
    """Equal arrays, signs of zero included."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


class TestHornerStack:
    """One padded Horner pass equals np.polyval of each function, bit for bit."""

    @relaxed
    @given(st.lists(fns(), min_size=1, max_size=6),
           st.lists(coeffs, min_size=0, max_size=2))
    def test_rows_equal_polyval(self, fs, long_nums):
        # long numerators pad the other rows over many high-degree steps
        fs = fs + [RationalFn(c * 4 + [frac(1)], [frac(2), frac(-1)])
                   for c in long_nums]
        for z in (np.exp(-2j * np.pi * (np.arange(67) + 0.5) / 134),
                  np.linspace(-0.4, 0.4, 33)):
            want = []
            for f in fs:
                den = np.polyval([float(c) for c in reversed(f.den)], z)
                if np.any(den == 0):
                    return
                want.append(np.polyval([float(c) for c in reversed(f.num)],
                                       z) / den)
            got = HornerStack(fs)(z)
            assert got.shape == (len(fs),) + z.shape
            for g, w in zip(got, want):
                assert _same_bits(g, w)
            assert all(_same_bits(f.evaluate(z), w) for f, w in zip(fs, want))

    def test_pole_in_any_row_raises(self):
        stack = HornerStack([D, ONE / (ONE - D)])
        with pytest.raises(ZeroDivisionError):
            stack(np.array([0.5, 1.0]))
