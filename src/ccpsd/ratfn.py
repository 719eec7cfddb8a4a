"""Exact univariate rational functions with Fraction coefficients.

Polynomials are coefficient tuples in ascending powers of the indeterminate
(written D throughout this package).  Rational functions are kept in a
canonical form -- numerator and denominator coprime, denominator monic -- so
that structural equality of transfer-matrix entries is a plain ``==``.

The kernel skips arithmetic that cannot change a result:

* Canonicalisation runs Euclid's gcd only where a factor can cancel.  A
  constant denominator needs none, so sums and products of polynomials build
  no gcd; if either side is a monomial c D^k, the gcd is D to the smaller
  valuation and is sliced off.
* A sum with a zero operand is the other operand, and summands with equal
  denominators add their numerators over that denominator.
* Products and scalings skip zero coefficients, and coefficients that are
  already ``Fraction`` are not converted again.
* At an exact D = 1, p(1) is the sum of the coefficients, so ``evaluate`` and
  ``derivative_at`` there read coefficient sums instead of running Horner.
* ``solve`` updates only the columns where the normalised pivot row is
  nonzero.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly(coeffs):
    """Normalize a coefficient iterable into a trimmed Fraction tuple."""
    return _trim(v if isinstance(v, Fraction) else Fraction(v) for v in coeffs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_neg(a):
    return tuple(-v for v in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] += ai * bj
    return _trim(out)


def poly_scale(a, s):
    s = Fraction(s)
    return _trim(v * s if v else v for v in a)


def poly_divmod(a, b):
    """Polynomial division with remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    for i in range(len(rem) - len(b), -1, -1):
        coef = rem[i + len(b) - 1] * inv_lead
        if coef != 0:
            q[i] = coef
            for j, bj in enumerate(b):
                rem[i + j] -= coef * bj
    return _trim(q), _trim(rem)


def poly_gcd(a, b):
    """Monic gcd via the Euclidean algorithm."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def poly_eval(a, z):
    """Horner evaluation; works for complex, float, or Fraction arguments.

    At an exact 1 (an int or a Fraction) the value is the coefficient sum.
    """
    if isinstance(z, (int, Fraction)) and z == 1:
        return sum((c for c in a if c), Fraction(0))
    acc = 0 * z if not isinstance(z, Fraction) else Fraction(0)
    for c in reversed(a):
        acc = acc * z + (complex(c) if isinstance(z, complex) else c)
    return acc


def poly_derivative(a):
    return _trim(i * a[i] if a[i] else a[i] for i in range(1, len(a)))


def _valuation(p):
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    return next(i for i, c in enumerate(p) if c)


def poly_reverse(a, degree):
    """Coefficients of D^degree * a(1/D); requires degree >= deg(a)."""
    if degree < len(a) - 1:
        raise ValueError("reversal degree smaller than polynomial degree")
    out = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(a):
        out[degree - i] = c
    return _trim(out)


class RationalFn:
    """A ratio of polynomials in D, always stored in canonical form."""

    __slots__ = ("num", "den", "_rounded")

    def __init__(self, num, den=(Fraction(1),)):
        num = poly(num)
        den = poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (Fraction(1),)
            return
        if len(den) > 1:  # a constant denominator shares no factor
            vn, vd = _valuation(num), _valuation(den)
            if vn == len(num) - 1 or vd == len(den) - 1:
                # a monomial's only factor is D: the gcd is D^min(valuations)
                k = min(vn, vd)
                num, den = num[k:], den[k:]
            else:
                g = poly_gcd(num, den)
                if len(g) > 1:
                    num = poly_divmod(num, g)[0]
                    den = poly_divmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = poly_scale(num, 1 / lead)
            den = poly_scale(den, 1 / lead)
        self.num, self.den = num, den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return RationalFn(())

    @staticmethod
    def const(v):
        return RationalFn((Fraction(v),))

    @staticmethod
    def monomial(coef, power):
        c = [Fraction(0)] * power + [Fraction(coef)]
        return RationalFn(c)

    @staticmethod
    def geometric(c0, b, ratio, period):
        """Sum_{k>=1} c0 * ratio^(k-1) * D^(b + period*(k-1))."""
        num = [Fraction(0)] * b + [Fraction(c0)]
        den = [Fraction(1)] + [Fraction(0)] * (period - 1) + [-Fraction(ratio)]
        return RationalFn(num, den)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return RationalFn(poly_add(self.num, other.num), self.den)
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RationalFn(num, poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        r = RationalFn.zero()
        r.num, r.den = poly_neg(self.num), self.den
        return r

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return RationalFn(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(
            poly_mul(self.num, other.den), poly_mul(self.den, other.num)
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __eq__(self, other):
        if not isinstance(other, (RationalFn, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def evaluate(self, z):
        """Evaluate at a complex/float point (exact if z is a Fraction).

        A numpy array of points is evaluated elementwise in one pass, with
        the coefficients rounded to floats on the first such call only.
        """
        if isinstance(z, np.ndarray):
            try:
                num, den = self._rounded
            except AttributeError:
                num = [float(c) for c in reversed(self.num)]
                den = [float(c) for c in reversed(self.den)]
                self._rounded = num, den
            den = np.polyval(den, z)
            if np.any(den == 0):
                raise ZeroDivisionError("evaluation at a pole")
            return np.polyval(num, z) / den
        den = poly_eval(self.den, z)
        if den == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return poly_eval(self.num, z) / den

    def derivative_at(self, z):
        """R'(z) by the quotient rule, without forming R' as a function."""
        den = poly_eval(self.den, z)
        if den == 0:
            raise ZeroDivisionError("evaluation at a pole")
        num = poly_eval(self.num, z)
        dnum = poly_eval(poly_derivative(self.num), z)
        dden = poly_eval(poly_derivative(self.den), z)
        return (dnum * den - num * dden) / (den * den)

    def substitute_inverse(self):
        """Return R(1/D) as a rational function of D."""
        deg = max(len(self.num), len(self.den)) - 1
        return RationalFn(
            poly_reverse(self.num, deg), poly_reverse(self.den, deg)
        )

    def series_coefficients(self, count):
        """First `count` coefficients of the power-series expansion at D=0."""
        if self.den and self.den[0] == 0:
            raise ValueError("no power series: denominator vanishes at 0")
        if not self.num:
            return [Fraction(0)] * count
        out = []
        d0 = self.den[0]
        state = list(self.num) + [Fraction(0)] * count
        for k in range(count):
            c = state[k] / d0
            out.append(c)
            for j in range(1, len(self.den)):
                if k + j < len(state):
                    state[k + j] -= c * self.den[j]
        return out

    def __repr__(self):
        def fmt(p):
            if not p:
                return "0"
            terms = []
            for i, c in enumerate(p):
                if c == 0:
                    continue
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*D" if c != 1 else "D")
                else:
                    terms.append(f"{c}*D^{i}" if c != 1 else f"D^{i}")
            return " + ".join(terms)

        if self.den == (Fraction(1),):
            return fmt(self.num)
        return f"({fmt(self.num)}) / ({fmt(self.den)})"


def solve(a, b):
    """Solve a X = b exactly by Gauss-Jordan elimination.

    ``a`` is n x n and ``b`` is n x r, both lists of rows over ``Fraction``
    or ``RationalFn``; returns X as n rows.  The pivot of each column is its
    first nonzero entry at or below the diagonal.
    """
    n = len(a)
    m = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        pivot_row = m[col] = [inv * v if v else v for v in m[col]]
        # a zero of the pivot row leaves its column of every row unchanged
        support = [c for c, v in enumerate(pivot_row) if v]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                row = m[r]
                for c in support:
                    row[c] = row[c] - f * pivot_row[c]
    return [row[n:] for row in m]


def _coerce(v):
    if isinstance(v, RationalFn):
        return v
    return RationalFn.const(v)


D = RationalFn.monomial(1, 1)
ONE = RationalFn.const(1)
ZERO = RationalFn.zero()
