"""Transfer matrices of one-step diagrams, exact in the delay variable D.

A transfer matrix G(D) has one row/column per labeled state; entry (i, j) is
the generating function of run lengths for transitions i -> j, so G(1) is
row-stochastic and pi G'(1) 1 is the mean run length.

Closed-form constructions are provided for every supported family, alongside
``ostm_from_ostd`` which converts any reduced diagram.  ``alternate_ax`` and
``alternate_sx`` are the compact two-state/one-state forms obtained by
tracking runs between transitions instead of between ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codebook import ConstraintFamily, alpha, group_cardinalities, lam, zeta
from .ratfn import RationalFn, ZERO


@dataclass
class TransferMatrix:
    family: ConstraintFamily
    entries: list  # n x n nested lists of RationalFn
    labels: list  # state descriptors, canonical order
    origin: str = "closed_form"

    @property
    def n(self):
        return len(self.entries)

    def derivative_at_one(self):
        """Exact G'(1) as nested Fractions, from coefficient sums."""
        return [[e.derivative_at(1) if e else Fraction(0) for e in row]
                for row in self.entries]

    def at_one(self):
        """Exact G(1) as nested Fractions, from coefficient sums."""
        return [[e.evaluate(1) if e else Fraction(0) for e in row]
                for row in self.entries]

    def check_stochastic(self):
        for i, row in enumerate(self.at_one()):
            if sum(row) != 1:
                raise ValueError(f"row {i} of G(1) sums to {sum(row)} != 1")
        return True

    def check_nonnegative_series(self, count=40):
        """Run-length probabilities (power-series coefficients) must be >= 0."""
        for row in self.entries:
            for e in row:
                for c in e.series_coefficients(count):
                    if c < 0:
                        raise ValueError("negative run probability")
        return True

    def __eq__(self, other):
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        return self.n == other.n and all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.n)
            for j in range(self.n)
        )


def ostm_from_ostd(ostd):
    n = ostd.n
    entries = [[ZERO] * n for _ in range(n)]
    for (i, j), rs in ostd.edges.items():
        entries[i][j] = rs.transfer_fn()
    tm = TransferMatrix(
        family=ostd.family, entries=entries, labels=list(ostd.state_keys),
        origin="grid",
    )
    tm.check_stochastic()
    return tm


# ---------------------------------------------------------------------------
# Infinite-length families
# ---------------------------------------------------------------------------


def _alpha_fn(x):
    """D^(x+2) / (2 (2 - D)), the entry the ax and sx closed forms share."""
    return RationalFn(
        [Fraction(0)] * (x + 2) + [Fraction(1)], [Fraction(2), -Fraction(1)]
    ) / 2


def closed_form_ax(x):
    """(x+1)x(x+1) matrix over states with trailing one-run 1..x+1."""
    fam = ConstraintFamily("ax", x)
    n = x + 1
    alpha_fn = _alpha_fn(x)
    half_d = RationalFn.monomial(Fraction(1, 2), 1)
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        entries[i][0] = alpha_fn
    for i in range(n - 1):
        entries[i][i + 1] = half_d
    entries[n - 1][n - 1] = entries[n - 1][n - 1] + half_d
    return TransferMatrix(fam, entries, [("run", r) for r in range(1, n + 1)])


def closed_form_sx(x):
    """Same state set for the 01-symmetric family; one runs are capped."""
    fam = ConstraintFamily("sx", x)
    n = x + 1
    entries = [[ZERO] * n for _ in range(n)]
    entries[n - 1][0] = _alpha_fn(x)
    for i in range(n - 1):
        entries[i][i + 1] = RationalFn.monomial(Fraction(1), 1)
    entries[n - 1][n - 1] = RationalFn.monomial(Fraction(1, 2), 1)
    return TransferMatrix(fam, entries, [("run", r) for r in range(1, n + 1)])


def iid_matrix():
    """Single-state matrix of a fair-coin stream: geometric(1/2) runs."""
    fam = ConstraintFamily("iid", 0)
    g = RationalFn([Fraction(0), Fraction(1)], [Fraction(2), -Fraction(1)])
    return TransferMatrix(fam, [[g]], ["any"])


def alternate_ax(x):
    """Two-state transition-run form of the same process."""
    fam = ConstraintFamily("ax", x)
    den = [Fraction(2), -Fraction(1)]  # 2 - D
    g01 = RationalFn([Fraction(0), Fraction(1)], den)
    g10 = RationalFn([Fraction(0)] * (x + 1) + [Fraction(1)], den)
    return TransferMatrix(fam, [[ZERO, g01], [g10, ZERO]],
                          ["after_one", "after_zero"], origin="alternate")


def alternate_sx(x):
    fam = ConstraintFamily("sx", x)
    g = RationalFn([Fraction(0)] * (x + 1) + [Fraction(1)],
                   [Fraction(2), -Fraction(1)])
    return TransferMatrix(fam, [[g]], ["toggle"], origin="alternate")


# ---------------------------------------------------------------------------
# Fixed-length families with bridging
# ---------------------------------------------------------------------------


def _beta(a, b, n_words, period):
    """a * D^b / (N - D^period); the monomial numerator needs no gcd."""
    return RationalFn(
        (Fraction(0),) * b + (Fraction(a),),
        (Fraction(n_words),) + (Fraction(0),) * (period - 1) + (-Fraction(1),),
    )


def _lambda_chain(fam, d, g):
    """Product of (1 - alpha_c) for c = d down to d-g."""
    out = Fraction(1)
    for k in range(g + 1):
        out *= 1 - alpha(fam, d - k)
    return out


def closed_form_aloco(m, x):
    """(m+x)-state matrix for bridged fixed-length streams, zero-run family."""
    fam = ConstraintFamily("aloco", x, m)
    if m < x + 2:
        raise ValueError("closed form requires m >= x + 2; use the grid")
    n_words = group_cardinalities(fam, m)[0]
    period = m + x
    z = zeta(fam)
    n = m + x
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(1, m + 1):  # 1-based word columns
        for j in range(1, m + 1):
            if i == m and j == 1:
                val = _beta(z, m + 2 * x + 1, n_words, period)
            elif j == i:
                val = _beta(Fraction(1), m + x, n_words, period)
            elif j == i + 1 or j > i + 1 + x:
                lc = _lambda_chain(fam, m + 1 - i, j - i - 1)
                val = RationalFn.monomial(lc, j - i) + _beta(
                    lc, m - i + j + x, n_words, period
                )
            elif i + 2 <= j <= i + 1 + x:
                lc = _lambda_chain(fam, m + 1 - i, j - i - 1)
                val = _beta(lc, m - i + j + x, n_words, period)
            else:  # j < i
                lc = _lambda_chain(fam, m + 1 - j, i - j - 1)
                val = _beta(1 / lc, m - i + j + x, n_words, period)
            entries[i - 1][j - 1] = val
    entries[m - 1][m] = RationalFn.monomial(z, 1)
    for k in range(1, x):
        entries[m + k - 1][m + k] = RationalFn.monomial(Fraction(1), 1)
    entries[m + x - 1][0] = RationalFn.monomial(Fraction(1), 1)
    labels = [("word", p) for p in range(1, m + 1)] + [
        ("bridge", b) for b in range(1, x + 1)
    ]
    tm = TransferMatrix(fam, entries, labels)
    tm.check_stochastic()
    return tm


def _loco_states(m, x):
    """Canonical labeled states of the companion indicator stream."""
    states = []
    states += [("free", p) for p in range(1, m + 1)]
    forced = []
    for f in range(x + 2, m + 1):
        for p in range(f - x, f):
            forced.append(("forced", p, f))
    for p in range(m - x + 1, m + 1):
        forced.append(("forced", p, m + 1))  # bridge-bound
    forced.sort(key=lambda s: (s[1], s[2]))
    states += forced
    states += [("bridge", b) for b in range(1, x + 1)]
    return states


def closed_form_loco_A(m, x):
    """Transfer matrix of the flipped indicator stream for 01-symmetric words.

    States: free columns (next bit unconstrained given history), forced runs
    identified by (column, column where freedom returns), x bridge slots.
    """
    fam = ConstraintFamily("loco", x, m)
    if m < x + 2:
        raise ValueError("closed form requires m >= x + 2; use the grid")
    states = _loco_states(m, x)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    entries = [[ZERO] * n for _ in range(n)]

    def lam_at(a):
        return lam(fam, a)

    def add(src, dst, prob, steps):
        entries[index[src]][index[dst]] = entries[index[src]][index[dst]] + (
            RationalFn.monomial(prob, steps)
        )

    def forced_entry(c):
        f = c + x
        return ("forced", c, f) if f <= m else ("forced", c, m + 1)

    for p in range(1, m):
        stay = lam_at(m - p + 1)
        add(("free", p), ("free", p + 1), stay, 1)
        chain = 1 - stay
        for c in range(p + x + 2, m + 1):
            prob = chain * (1 - lam_at(m - c + 2))
            add(("free", p), forced_entry(c), prob, c - p)
            chain *= lam_at(m - c + 2)
        add(("free", p), ("bridge", 1), chain, m + 1 - p)
    add(("free", m), ("bridge", 1), Fraction(1), 1)

    for f in range(x + 2, m + 1):
        for p in range(f - x, f):
            dst = ("forced", p + 1, f) if p + 1 < f else ("free", f)
            add(("forced", p, f), dst, Fraction(1), 1)
    for p in range(m - x + 1, m + 1):
        dst = ("forced", p + 1, m + 1) if p < m else ("bridge", 1)
        add(("forced", p, m + 1), dst, Fraction(1), 1)

    for b in range(1, x):
        add(("bridge", b), ("bridge", b + 1), Fraction(1), 1)
    add(("bridge", x), ("free", 1), Fraction(1, 2), 1)
    chain = Fraction(1, 2)
    for c in range(2, m + 1):
        prob = chain * (1 - lam_at(m - c + 2))
        add(("bridge", x), forced_entry(c), prob, c)
        chain *= lam_at(m - c + 2)
    add(("bridge", x), ("bridge", 1), chain, m + 1)

    tm = TransferMatrix(fam, entries, states)
    tm.check_stochastic()
    return tm
