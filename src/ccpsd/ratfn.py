"""Exact univariate rational functions over the integers.

Polynomials are coefficient tuples in ascending powers of the indeterminate
(written D throughout this package).  A ``RationalFn`` holds its value
n / (c d) in three parts, all Python ints:

* ``n``, the integer coefficients of the numerator;
* ``c``, a positive scale, coprime to the content (the gcd of the
  coefficients) of ``n``;
* ``d``, a primitive denominator with a positive leading coefficient,
  coprime to ``n`` as a polynomial.

That form is unique, so structural equality and hashing of transfer-matrix
entries are plain tuple compares.  ``num`` and ``den`` give the canonical
``Fraction`` form -- numerator and denominator coprime, denominator monic --
built on demand from the three parts.

Arithmetic runs on ints only:

* Products are convolutions.  A common factor is found by a primitive
  pseudo-remainder gcd and divided out exactly: by Gauss's lemma a primitive
  divisor leaves an integral quotient.  The powers of D are split off before
  the gcd, so with a monomial c D^k on either side it is a power of D; a
  constant on either side shares nothing.
* A sum reduces only by the gcd g of the two denominators: its numerator is
  coprime to both cofactors, so it can share factors with g alone.  Hence a
  polynomial plus a reduced fraction needs no gcd, and equal denominators
  need one against that denominator.
* A product cancels only gcd(a_n, b_d) and gcd(b_n, a_d), and a quotient
  multiplies by the inverse, which is canonical as it stands.
* At an exact point P/Q, values and derivatives are integer sums scaled by a
  power of Q, with one ``Fraction`` made at the end; at D = 1 they are the
  plain coefficient sums.
* ``over_lcm`` puts fractions over the lcm of their denominators, so that
  ``sum_at_one``, ``transfer`` and ``fstd`` add them as ints.
* ``eliminate`` is the one elimination over rational functions: it removes
  nodes from a graph of ``RationalFn`` edge weights, joining each node's
  predecessors to its successors.  ``fstd`` reduces a diagram to its
  labeled states with it, which ``clocked`` reads its run lists from, and
  ``transfer`` reads pi (I - G)^-1 1 as an edge left to a sink.  pi
  itself is reduced from G(1) on integer rows (``transfer.reduce_states``).
* ``HornerStack`` evaluates many rational functions at an array of points
  in one pass of Horner's rule, with the coefficients rounded to floats once.
  It is the one float kernel: ``evaluate`` at a float or complex point, or
  an array of them, goes through it, and with ``real`` through
  ``HornerStack.real``, the real parts in real arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

_ONE = (1,)


def _trim(c):
    """A coefficient list without trailing zeros, as a tuple."""
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _integer_poly(coeffs):
    """(p, s): integer coefficients p and a positive int s with coeffs = p/s."""
    fr = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in coeffs]
    s = lcm(*(v.denominator for v in fr if v))
    return _trim([v.numerator * (s // v.denominator) if v else 0
                  for v in fr]), s


def _scale(p, s):
    return p if s == 1 else tuple(s * v for v in p)


def _mul(a, b):
    """Product of two integer polynomials."""
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return _scale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for j, bj in enumerate(b):
        if bj:
            for i, ai in enumerate(a, j):
                out[i] += ai * bj
    return tuple(out)  # the leading product is nonzero


def _combine(a, sa, b, sb):
    """sa a + sb b for integer polynomials a, b and ints sa, sb."""
    if len(a) < len(b):
        a, sa, b, sb = b, sb, a, sa
    out = [sa * v for v in a]
    for i, v in enumerate(b):
        if v:
            out[i] += sb * v
    return _trim(out)


def _primitive_part(p):
    g = gcd(*p)
    return p if g == 1 else tuple(v // g for v in p)


def _lowest_power(p):
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    return next(i for i, v in enumerate(p) if v)


def _pseudo_remainder(a, b):
    """A nonzero integer multiple of a mod b, for len(a) >= len(b) > 1."""
    r = list(a)
    nb, lb = len(b), b[-1]
    terms = [(j, bj) for j, bj in enumerate(b[:-1]) if bj]
    while len(r) >= nb:
        top = r.pop()  # cancelled below
        g = gcd(top, lb)
        ms, fs = lb // g, top // g
        if ms != 1:
            r = [ms * v for v in r]
        shift = len(r) - nb + 1
        for j, bj in terms:
            r[shift + j] -= fs * bj
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _gcd(a, b):
    """Primitive gcd, with a positive leading coefficient, of two nonzero
    integer polynomials."""
    if len(a) == 1 or len(b) == 1:
        return _ONE
    va, vb = _lowest_power(a), _lowest_power(b)
    a, b = a[va:], b[vb:]
    g = _ONE
    if len(a) > 1 and len(b) > 1:
        a, b = _primitive_part(a), _primitive_part(b)
        if len(a) < len(b):
            a, b = b, a
        while True:
            r = _pseudo_remainder(a, b)
            if not r:
                g = b if b[-1] > 0 else tuple(-v for v in b)
                break
            if len(r) == 1:
                break
            a, b = b, _primitive_part(r)
    k = min(va, vb)
    return (0,) * k + g if k else g


def _divide_exact(a, b):
    """a / b for integer polynomials where b, primitive with a positive
    leading coefficient, divides a."""
    vb = _lowest_power(b)
    if vb:  # b = D^vb b', and D^vb divides a as well
        a, b = a[vb:], b[vb:]
    if len(b) == 1:  # b = 1
        return a
    rem = list(a)
    nb, lb = len(b), b[-1]
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    q = [0] * (len(a) - nb + 1)
    for i in range(len(q) - 1, -1, -1):
        coef = rem[i + nb - 1] // lb
        if coef:
            q[i] = coef
            for j, bj in terms:
                rem[i + j] -= coef * bj
    return tuple(q)


def _canonical(n, k, d):
    """The three parts of n / (k d): integer polynomials n and nonzero d, and
    a positive int k."""
    if not n:
        return (), 1, _ONE
    if len(d) > 1:
        g = _gcd(n, d)
        if len(g) > 1:
            n, d = _divide_exact(n, g), _divide_exact(d, g)
    s = gcd(*d)
    if d[-1] < 0:
        s = -s
    if s != 1:
        d = tuple(v // s for v in d)
        if s < 0:
            n, s = tuple(-v for v in n), -s
        k *= s
    return _cancel_scale(n, k, d)


def _cancel_scale(n, k, d):
    """Parts of n / (k d) with d canonical and coprime to n: only the common
    factor of k and the content of n is left to cancel."""
    if k != 1:
        g = gcd(k, *n)
        if g != 1:
            n, k = tuple(v // g for v in n), k // g
    return n, k, d


def _at(p, z, top):
    """p(z) Q^top as an int, for an exact z = P/Q and top >= deg p."""
    num, den = z.numerator, z.denominator
    if num == den:  # z = 1
        return sum(p)
    acc, qpow = 0, 1
    for v in reversed(p):
        acc = acc * num + v * qpow
        qpow *= den
    return acc * den ** (top - len(p) + 1)


def _derivative(p):
    return tuple(i * v for i, v in enumerate(p))[1:]


def _is_exact(z):
    return isinstance(z, (int, Fraction))


class RationalFn:
    """A ratio of polynomials in D, always stored in canonical form."""

    __slots__ = ("_n", "_c", "_d")

    def __init__(self, num, den=_ONE):
        n, sn = _integer_poly(num)
        d, sd = _integer_poly(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        # (n / sn) / (d / sd) = sd n / (sn d)
        self._n, self._c, self._d = _canonical(_scale(n, sd), sn, d)

    @classmethod
    def _of(cls, parts):
        """A RationalFn of parts (n, c, d) already in canonical form."""
        r = object.__new__(cls)
        r._n, r._c, r._d = parts
        return r

    @property
    def num(self):
        """Canonical numerator: Fraction coefficients over the monic den."""
        s = self._c * self._d[-1]
        return tuple(Fraction(v, s) for v in self._n)

    @property
    def den(self):
        """Canonical denominator: monic, with Fraction coefficients."""
        lead = self._d[-1]
        return tuple(Fraction(v, lead) for v in self._d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return RationalFn._of(((), 1, _ONE))

    @staticmethod
    def const(v):
        return RationalFn.monomial(v, 0)

    @staticmethod
    def monomial(coef, power):
        coef = coef if _is_exact(coef) else Fraction(coef)
        if not coef:
            return RationalFn.zero()
        return RationalFn._of(((0,) * power + (coef.numerator,),
                               coef.denominator, _ONE))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        an, ac, ad = self._n, self._c, self._d
        bn, bc, bd = other._n, other._c, other._d
        if not bn:
            return self
        if not an:
            return other
        # a_d = g a1 and b_d = g b1 with g their gcd
        if ad == bd:
            g, a1, b1 = ad, _ONE, _ONE
        else:
            g = _gcd(ad, bd)
            a1, b1 = _divide_exact(ad, g), _divide_exact(bd, g)
        k = lcm(ac, bc)
        t = _combine(_mul(an, b1), k // ac, _mul(bn, a1), k // bc)
        if not t:
            return RationalFn.zero()
        # t is coprime to a1 and b1, so it can only share factors with g
        if len(g) > 1:
            h = _gcd(t, g)
            if len(h) > 1:
                t, g = _divide_exact(t, h), _divide_exact(g, h)
        return RationalFn._of(_cancel_scale(t, k, _mul(_mul(g, a1), b1)))

    __radd__ = __add__

    def __neg__(self):
        return RationalFn._of((tuple(-v for v in self._n), self._c, self._d))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        an, ac, ad = self._n, self._c, self._d
        bn, bc, bd = other._n, other._c, other._d
        if not an or not bn:
            return RationalFn.zero()
        # each numerator is coprime to its own denominator
        g = _gcd(an, bd)
        if len(g) > 1:
            an, bd = _divide_exact(an, g), _divide_exact(bd, g)
        g = _gcd(bn, ad)
        if len(g) > 1:
            bn, ad = _divide_exact(bn, g), _divide_exact(ad, g)
        return RationalFn._of(_cancel_scale(_mul(an, bn), ac * bc,
                                            _mul(ad, bd)))

    __rmul__ = __mul__

    def _inverse(self):
        n, c, d = self._n, self._c, self._d
        if not n:
            raise ZeroDivisionError("division by zero rational function")
        s = gcd(*n)
        if n[-1] < 0:
            s = -s
        # c d / n = (c d / s) / (n / s): the content c of c d is coprime to s
        top = tuple(c * v for v in d) if s > 0 else tuple(-c * v for v in d)
        return RationalFn._of((top, abs(s), tuple(v // s for v in n)))

    def __truediv__(self, other):
        return self * _coerce(other)._inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __eq__(self, other):
        if not isinstance(other, (RationalFn, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return (self._n == other._n and self._c == other._c
                and self._d == other._d)

    def __hash__(self):
        return hash((self._n, self._c, self._d))

    def __bool__(self):
        return bool(self._n)

    # -- queries ---------------------------------------------------------

    def evaluate(self, z, real=False):
        """Evaluate at a point: exactly at an int or Fraction, else by
        ``HornerStack`` at a float, complex or numpy array of them, with the
        coefficients rounded to floats on each call.  A single point gives a
        numpy scalar, an array of points an array of their values.  With
        ``real``, the real parts of the values at float or complex points,
        from Horner's rule in real arithmetic (``HornerStack.real``).
        """
        if not _is_exact(z):
            stack = HornerStack([self])
            return (stack.real if real else stack)(np.asarray(z))[0][()]
        n, c, d = self._n, self._c, self._d
        top = max(len(n), len(d)) - 1
        den = _at(d, z, top)
        if not den:
            raise ZeroDivisionError("evaluation at a pole")
        return Fraction(_at(n, z, top), c * den)

    def derivative_parts(self, z):
        """(t, q) with R'(z) = t / q unreduced and q > 0, at an exact point
        (int or Fraction); at z = 1, t = n'(1) d(1) - n(1) d'(1) and
        q = c d(1)^2 from coefficient sums."""
        n, c, d = self._n, self._c, self._d
        # with every value scaled by Q^top and every slope by Q^(top-1),
        # (n' d - n d') / (c d^2) gains one factor Q over the scale
        top = max(len(n), len(d)) - 1
        den = _at(d, z, top)
        if not den:
            raise ZeroDivisionError("evaluation at a pole")
        top_d = (_at(_derivative(n), z, top - 1) * den
                 - _at(n, z, top) * _at(_derivative(d), z, top - 1))
        return top_d * z.denominator, c * den * den

    def terms(self):
        """The (power, coefficient) pairs of a polynomial's nonzero
        coefficients, read from its integer parts; None if the denominator
        is not constant."""
        if self._d != _ONE:
            return None
        return [(t, Fraction(v, self._c)) for t, v in enumerate(self._n) if v]

    def substitute_inverse(self):
        """Return R(1/D) as a rational function of D.

        Both parts are reversed over the larger degree; the reversals stay
        coprime and the denominator primitive, so only a sign can change.
        """
        n, c, d = self._n, self._c, self._d
        deg = max(len(n), len(d)) - 1
        rn = _trim([0] * (deg + 1 - len(n)) + list(reversed(n)))
        rd = _trim([0] * (deg + 1 - len(d)) + list(reversed(d)))
        if rd[-1] < 0:
            rn, rd = tuple(-v for v in rn), tuple(-v for v in rd)
        return RationalFn._of((rn, c, rd))

    def series_coefficients(self, count):
        """First `count` coefficients of the power-series expansion at D=0."""
        num, den = self.num, self.den
        if den[0] == 0:
            raise ValueError("no power series: denominator vanishes at 0")
        if not num:
            return [Fraction(0)] * count
        out = []
        d0 = den[0]
        state = list(num) + [Fraction(0)] * count
        for k in range(count):
            c = state[k] / d0
            out.append(c)
            for j in range(1, len(den)):
                if k + j < len(state):
                    state[k + j] -= c * den[j]
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

        if self._d == _ONE:
            return fmt(self.num)
        return f"({fmt(self.num)}) / ({fmt(self.den)})"


def eliminate(out, nodes):
    """Remove ``nodes`` from the graph ``out`` in the given order, in place.

    ``out`` maps each node to a {successor: weight} map of its edges, the
    weights ``RationalFn``s.
    Removing u with self-loop w joins each predecessor p to each successor s
    by out[p][u] / (1 - w) * out[u][s], so that every path through removed
    nodes is summed into one edge between the nodes kept.  The paths are
    those of a transfer matrix, whose entries are generating functions of
    runs of at least one step: every loop is then divisible by D and
    1 - w is nonzero.  Where it is not, the division raises
    ``ZeroDivisionError``.
    """
    into = {u: set() for u in nodes}
    for p, succ in out.items():
        for s in succ:
            if s in into:
                into[s].add(p)
    for u in nodes:
        succ = out.pop(u)
        into[u].discard(u)
        loop = succ.pop(u, None)
        if loop:
            succ = {s: w / (1 - loop) for s, w in succ.items()}
        for s in succ:
            if s in into:
                into[s].discard(u)
        for p in into.pop(u):
            w = out[p].pop(u)
            for s, v in succ.items():
                out[p][s] = out[p][s] + w * v if s in out[p] else w * v
                if s in into:
                    into[s].add(p)


def over_lcm(pairs):
    """(nums, L) for the fractions num / den in ``pairs``: L is the lcm of
    the denominators and nums[k] = num_k (L / den_k), so each is nums[k] / L."""
    pairs = list(pairs)
    scale = lcm(*(d for _, d in pairs))
    return [v * (scale // d) for v, d in pairs], scale


def sum_at_one(fns):
    """The sum of the values of ``fns`` at D = 1, as one int over the lcm
    of their unreduced denominators c d(1), from coefficient sums."""
    parts = [(sum(f._n), f._c * sum(f._d)) for f in fns]
    nums, scale = over_lcm((t, q) if q > 0 else (-t, -q) for t, q in parts)
    return Fraction(sum(nums), scale)


class HornerStack:
    """Float values of several rational functions at an array of points.

    The canonical coefficients are rounded to floats once and stacked
    highest power first, each polynomial zero-padded at the high-degree end.
    A padded step of Horner's rule leaves the accumulator at +0, so each row
    equals ``np.polyval`` of its own coefficients bit for bit, while one pass
    of max-degree steps serves every function.
    """

    def __init__(self, fns):
        self.num = _stack_coeffs([(f._n, f._c * f._d[-1]) for f in fns])
        self.den = _stack_coeffs([(f._d, f._d[-1]) for f in fns])

    def __call__(self, z):
        """Array of shape (functions,) + z.shape."""
        den = _horner(self.den, z)
        if np.any(den == 0):
            raise ZeroDivisionError("evaluation at a pole")
        return _horner(self.num, z) / den

    def real(self, z):
        """Real parts of the values at complex ``z``, of the same shape as
        ``__call__``'s.

        Horner's rule runs on the real and imaginary parts in real
        arithmetic.  Each real operation rounds alike wherever its point sits
        in the array, which numpy's complex product does not, so a point's
        value does not depend on the grid it is evaluated on.
        """
        nr, ni = _horner_parts(self.num, z)
        dr, di = _horner_parts(self.den, z)
        mag = dr * dr + di * di
        if np.any(mag == 0):
            raise ZeroDivisionError("evaluation at a pole")
        return (nr * dr + ni * di) / mag


def _stack_coeffs(polys):
    """Rows of p / s for (p, s) in ``polys``: int true division rounds each
    quotient correctly, as ``float`` of the reduced ``Fraction`` does."""
    width = max(len(p) for p, _ in polys)
    out = np.zeros((len(polys), width))
    for r, (p, s) in enumerate(polys):
        out[r, width - len(p):] = [v / s for v in reversed(p)]
    return out


def _horner(coeffs, z):
    """Each row of ``coeffs`` (highest power first) evaluated at ``z``."""
    acc = np.zeros((len(coeffs),) + z.shape, dtype=np.result_type(z, 0.0))
    shape = (len(coeffs),) + (1,) * z.ndim
    for c in coeffs.T:
        acc *= z
        acc += c.reshape(shape)
    return acc


def _horner_parts(coeffs, z):
    """``_horner`` at complex ``z`` as its real and imaginary parts."""
    x, y = z.real, z.imag
    shape = (len(coeffs),) + (1,) * z.ndim
    re = np.zeros((len(coeffs),) + z.shape)
    im = np.zeros_like(re)
    for c in coeffs.T:
        re, im = re * x - im * y + c.reshape(shape), re * y + im * x
    return re, im


def _coerce(v):
    if isinstance(v, RationalFn):
        return v
    return RationalFn.const(v)


D = RationalFn.monomial(1, 1)
ONE = RationalFn.const(1)
ZERO = RationalFn.zero()
