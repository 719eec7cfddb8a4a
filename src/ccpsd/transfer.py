"""Transfer matrices of one-step diagrams, exact in the delay variable D.

A transfer matrix G(D) has one row/column per labeled state; entry (i, j) is
the generating function of run lengths for transitions i -> j, so G(1) is
row-stochastic and pi G'(1) 1 is the mean run length.

Closed-form constructions are provided for every supported family, alongside
``ostm_from_ostd`` which converts any reduced diagram.

The exact statistics stay on ints until each result is made.  Every state
emits one labeled symbol, so where a constructor can count how often each
state is visited it hands the matrix those counts and their scale
(``visits``): pi is the counts normalised and p1 their sum over the scale.
The A-LOCO closed form's states are the positions of one period that read
1, so its counts are the indicator's position means
(``cyclo.position_means``, ints over N^2); the LOCO closed form's are the
words in which each free, forced or bridge state occurs, from the ones and
adjacent pair counts of ``codebook.pair_counts``; a stream closed form's
are read from its fair coins; a codeword grid's are its labeled states'
masses over a period, pushed forward as ints over one scale
(``fstd.reduce_to_ostd``).  Every other matrix -- a stream grid or BFS
matrix -- takes pi by state reduction on rows of ints over one
denominator each (``reduce_states``), and p1 = 1 / (pi G'(1) 1) takes each
row sum of G'(1) as one int over the lcm of its entries' denominators, from
coefficient sums.  A row of G(1) is checked to sum to 1 the same way
(``ratfn.sum_at_one``).
The exact PSD S_X(D) (``psd_x``) is kept on the matrix as pi is.  A stream
closed form is dense, so one whose order squared exceeds
``MATRIX_SLOT_LIMIT`` is refused before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .codebook import ConstraintFamily, alpha, lam, pair_counts, zeta
from .cyclo import position_means
from .ratfn import (HornerStack, ONE, RationalFn, ZERO, eliminate, over_lcm,
                    sum_at_one)


# Most entries, zeros included, of the dense matrix a stream closed form
# builds.  Building ``closed_form_ax(x)`` peaks at about 16 B a slot above
# the 29 MB of the imports (x=4,000: 274 MB on a 2-CPU host; `bandwidth` at
# x=5,000, 418 MB), so the limit, x up to 8,191, needs about 1.1 GB.
MATRIX_SLOT_LIMIT = 1 << 26


@dataclass(frozen=True)
class TransferMatrix:
    """G(D) and the exact statistics of G(1) and G'(1), each computed once.

    ``entries`` is stored as a tuple of tuples, so a matrix never changes
    after construction and its cached statistics stay valid.
    """

    family: ConstraintFamily
    entries: tuple  # n x n nested tuples of RationalFn
    labels: list  # state descriptors, canonical order
    origin: str = "closed_form"
    # (counts, scale) when the constructor counts visits: state i is
    # visited counts[i] / scale times a symbol on average
    visits: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple(tuple(row) for row in self.entries))

    @property
    def n(self):
        return len(self.entries)

    @cached_property
    def _g1(self):
        """G(1), with the int 0 where an entry is zero."""
        return tuple(tuple(e.evaluate(1) if e else 0 for e in row)
                     for row in self.entries)

    @cached_property
    def stationary(self):
        """Exact pi with pi G(1) = pi and sum(pi) = 1, as a tuple.

        A matrix with visit counts visits each state as often as its count
        says, so pi is the counts normalised.  Otherwise pi is
        ``reduce_states`` of G(1), which must be irreducible, as every
        matrix this package builds is.
        """
        if self.visits:
            counts, _ = self.visits
            total = sum(counts)
            return tuple(Fraction(v, total) for v in counts)
        pi = reduce_states(self._g1)
        if any(p < 0 for p in pi):
            raise ValueError("stationary distribution has negative entries")
        return pi

    @cached_property
    def prob_one(self):
        """Exact density of labeled symbols: 1 / (pi G'(1) 1).

        Every state emits one labeled symbol, so with visit counts it is the
        visits a symbol: their sum over the scale.  Otherwise each row sum of
        G'(1) is one int over the lcm of the unreduced denominators c d(1)^2
        of its entries' slopes at 1.
        """
        if self.visits:
            counts, scale = self.visits
            return Fraction(sum(counts), scale)
        mean = Fraction(0)
        for p, row in zip(self.stationary, self.entries):
            nums, scale = over_lcm(e.derivative_parts(1) for e in row if e)
            mean += p * Fraction(sum(nums), scale)
        return 1 / mean

    @cached_property
    def psd_x(self):
        """Exact rational S_X(D) on the unit circle (D and 1/D combined).

        Its value at D = exp(-2 pi i f) is the continuous indicator PSD,
        p1 (pi v + pi v(1/D) - 1) with v = (I - G)^-1 1.  pi v is the one
        edge left from a source S, joined to each state i by pi_i, to a sink
        T, joined from each state by 1, once every state is eliminated
        (``ratfn.eliminate``), from the last state back.  A stream's return
        edges all enter state 0, so removing it first would join every
        row to each of its successors; the 81-state ``closed_form_ax(80)``
        takes 0.012 s in this order and 14.5 s in index order on a 2-CPU
        Intel Xeon host.
        """
        n = self.n
        out = {i: {j: e for j, e in enumerate(row) if e}
               for i, row in enumerate(self.entries)}
        for i in range(n):
            out[i]["T"] = ONE
        out["S"] = {i: RationalFn.const(p)
                    for i, p in enumerate(self.stationary) if p}
        eliminate(out, range(n - 1, -1, -1))
        pv = out["S"]["T"]
        return RationalFn.const(self.prob_one) * (
            pv + pv.substitute_inverse() - ONE)

    @cached_property
    def entry_stack(self):
        """(HornerStack of the distinct nonzero entries, rows, columns,
        stack index) over the nonzero positions, as index arrays."""
        index = {}
        rows, cols, which = [], [], []
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if e:
                    rows.append(i)
                    cols.append(j)
                    which.append(index.setdefault(e, len(index)))
        return (HornerStack(list(index)), np.array(rows), np.array(cols),
                np.array(which))

    def check_stochastic(self):
        """True if every row of G(1) sums to 1, summed by ``sum_at_one``
        from the entries' unreduced coefficient sums."""
        for i, row in enumerate(self.entries):
            total = sum_at_one(e for e in row if e)
            if total != 1:
                raise ValueError(f"row {i} of G(1) sums to {total} != 1")
        return True

    def __eq__(self, other):
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        return self.n == other.n and all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.n)
            for j in range(self.n)
        )


def reduce_states(g1):
    """pi of a stochastic G(1), rows of ints and ``Fraction``s, by state
    reduction (Grassmann, Taksar and Heyman, Operations Research 33(5),
    1985): pi_k / pi_0 is the mean number of visits to k between visits to
    0.  The edges into 0 are dropped, each state k > 0 is joined to a sink
    by 1, and states are eliminated from the last back; the edge left from
    0 to k's sink is that mean.

    Each row is ints over one denominator d.  Removing u with loop l scales
    the row of each predecessor p by d_u - l, adds p's weight to u times
    u's row, multiplies p's denominator by d_u - l, and divides the row and
    its denominator by their gcd.  A state whose loop is 1 when it is
    removed has no mass to the states before it, so G(1) is not
    irreducible, and ``ValueError`` names that state.
    """
    n = len(g1)
    rows, dens = [], []
    for i, row in enumerate(g1):
        cols = [j for j, v in enumerate(row) if j and v]
        nums, den = over_lcm((row[j].numerator, row[j].denominator)
                             for j in cols)
        rows.append(dict(zip(cols, nums)))
        if i:
            rows[i][n + i] = den  # column n + k is k's sink
        dens.append(den)
    into = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            if j < n:
                into[j].add(i)
    for u in range(n - 1, 0, -1):
        row = rows[u]
        into[u].discard(u)
        scale = dens[u] - row.pop(u, 0)
        if not scale:
            raise ValueError(f"G(1) is not irreducible: state {u} has no "
                             "mass to the states before it")
        for s in row:
            if s < n:
                into[s].discard(u)
        for p in into[u]:
            prow = rows[p]
            w = prow.pop(u)
            if scale != 1:
                for s in prow:
                    prow[s] *= scale
            for s, v in row.items():
                prow[s] = prow[s] + w * v if s in prow else w * v
                if s < n:
                    into[s].add(p)
            den = dens[p] * scale
            g = gcd(den, *prow.values())
            if g > 1:
                for s in prow:
                    prow[s] //= g
                den //= g
            dens[p] = den
    visits = [dens[0]] + [rows[0].get(n + k, 0) for k in range(1, n)]
    total = sum(visits)
    return tuple(Fraction(v, total) for v in visits)


def ostm_from_ostd(ostd):
    """G(D) of a reduced diagram: its path generating functions in place,
    refused unless every row of G(1) sums to 1, with the diagram's visit
    counts where it has them."""
    n = ostd.n
    entries = [[ostd.edges.get((i, j), ZERO) for j in range(n)]
               for i in range(n)]
    tm = TransferMatrix(
        family=ostd.family, entries=entries, labels=list(ostd.state_keys),
        origin="grid", visits=ostd.visits,
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


def _stream_order(fam):
    """x + 1, the order of a stream closed form, refused before anything is
    allocated when its square exceeds ``MATRIX_SLOT_LIMIT``."""
    n = fam.x + 1
    if n * n > MATRIX_SLOT_LIMIT:
        raise ValueError(
            f"{fam.kind} x={fam.x} needs a dense {n} x {n} transfer matrix,"
            f" more than the limit of {MATRIX_SLOT_LIMIT} entries")
    return n


def closed_form_ax(x):
    """(x+1)x(x+1) matrix over states with trailing one-run 1..x+1."""
    fam = ConstraintFamily("ax", x)
    n = _stream_order(fam)
    alpha_fn = _alpha_fn(x)
    half_d = RationalFn.monomial(Fraction(1, 2), 1)
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        entries[i][0] = alpha_fn
    for i in range(n - 1):
        entries[i][i + 1] = half_d
    entries[n - 1][n - 1] = entries[n - 1][n - 1] + half_d
    # each state sends half its visits back to state 0 and half on, so
    # state r < x takes 2^-(r+1) of them and the last state, which keeps
    # its own half, as many as the one before it; a visit is followed by
    # (x + 4) / 2 symbols on average
    visits = (tuple(1 << (x - 1 - r) for r in range(x)) + (1,),
              (1 << (x - 1)) * (x + 4))
    return TransferMatrix(fam, entries, [("run", r) for r in range(1, n + 1)],
                          visits=visits)


def closed_form_sx(x):
    """Same state set for the 01-symmetric family; one runs are capped."""
    fam = ConstraintFamily("sx", x)
    n = _stream_order(fam)
    entries = [[ZERO] * n for _ in range(n)]
    entries[n - 1][0] = _alpha_fn(x)
    for i in range(n - 1):
        entries[i][i + 1] = RationalFn.monomial(Fraction(1), 1)
    entries[n - 1][n - 1] = RationalFn.monomial(Fraction(1, 2), 1)
    # a cycle visits each state once and the last, which keeps half its
    # visits, twice on average; half the symbols are labeled
    visits = ((1,) * x + (2,), 2 * (x + 2))
    return TransferMatrix(fam, entries, [("run", r) for r in range(1, n + 1)],
                          visits=visits)


def iid_matrix():
    """Single-state matrix of a fair-coin stream: geometric(1/2) runs."""
    fam = ConstraintFamily("iid", 0)
    g = RationalFn([Fraction(0), Fraction(1)], [Fraction(2), -Fraction(1)])
    return TransferMatrix(fam, [[g]], ["any"], visits=((1,), 2))


# ---------------------------------------------------------------------------
# Fixed-length families with bridging
# ---------------------------------------------------------------------------


def _lambda_chains(fam, m):
    """chains[d][g]: product of (1 - alpha_c) for c = d down to d-g, for
    2 <= d-g <= d <= m; each factor computed once."""
    factor = {c: 1 - alpha(fam, c) for c in range(2, m + 1)}
    chains = {}
    for d in range(2, m + 1):
        acc, row = Fraction(1), []
        for c in range(d, 1, -1):
            acc *= factor[c]
            row.append(acc)
        chains[d] = row
    return chains


def closed_form_aloco(m, x):
    """(m+x)-state matrix for bridged fixed-length streams, zero-run family.

    With N words and period P = m + x, every word-to-word entry is
    a D^b / (N - D^P), a geometric tail over later periods with ratio
    D^P / N.  Where the run can also close within the word, as lc D^k, the
    tail is lc D^(k+P) / (N - D^P), and the sum is lc N D^k / (N - D^P):
    the D^(k+P) terms cancel.  Each entry is made from its canonical parts,
    the numerator -p D^b and the scale q of a = p/q over the shared
    denominator D^P - N, which is primitive with a positive leading
    coefficient and coprime to every monomial.
    """
    fam = ConstraintFamily("aloco", x, m)
    if m < x + 2:
        raise ValueError("closed form requires m >= x + 2; use the grid")
    n_words, ones = pair_counts(fam)[:2]
    period = m + x
    z = zeta(fam)
    n = m + x
    chains = _lambda_chains(fam, m)
    den = (-n_words,) + (0,) * (period - 1) + (1,)  # D^P - N
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(1, m + 1):  # 1-based word columns
        for j in range(1, m + 1):
            if i == m and j == 1:
                a, b = z, m + 2 * x + 1
            elif j == i:
                a, b = Fraction(1), period
            elif j == i + 1 or j > i + 1 + x:
                a, b = chains[m + 1 - i][j - i - 1] * n_words, j - i
            elif j > i:
                a, b = chains[m + 1 - i][j - i - 1], period + j - i
            else:
                a, b = 1 / chains[m + 1 - j][i - j - 1], period + j - i
            entries[i - 1][j - 1] = RationalFn._of(
                ((0,) * b + (-a.numerator,), a.denominator, den))
    entries[m - 1][m] = RationalFn.monomial(z, 1)
    for k in range(1, x):
        entries[m + k - 1][m + k] = RationalFn.monomial(Fraction(1), 1)
    entries[m + x - 1][0] = RationalFn.monomial(Fraction(1), 1)
    labels = [("word", p) for p in range(1, m + 1)] + [
        ("bridge", b) for b in range(1, x + 1)
    ]
    # state i is position i of a period, visited when it reads 1: N^2 times
    # its mean, over N^2 P
    visits = (position_means(fam, "x", n_words, ones),
              n_words * n_words * period)
    tm = TransferMatrix(fam, entries, labels, visits=visits)
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


def _loco_visits(fam, states):
    """Words of the N in which each state of ``closed_form_loco_A`` is
    visited, and the scale N P.

    Every bridge slot is visited once a period, and word column p in the
    words that read 0 there.  A word whose bits at 1-based columns c - 1
    and c read 1, 0 reads 0 from c on for x columns or to the end of the
    word, and is forced there: through state (p, c + x) at c <= p < c + x,
    or through (p, m + 1) from c to the bridge when c + x > m.  The other
    words reading 0 at p are free there.
    """
    m, x = fam.m, fam.x
    n, ones, _, _, with_next, _ = pair_counts(fam)
    fall = [0, 0] + [u - g for u, g in zip(ones, with_next)]  # fall[c]
    count = {("bridge", b): n for b in range(1, x + 1)}
    for f in range(x + 2, m + 1):
        for p in range(f - x, f):
            count["forced", p, f] = fall[f - x]
    late = 0  # the falls whose forced run reaches the bridge
    for p in range(m - x + 1, m + 1):
        late += fall[p]
        count["forced", p, m + 1] = late
    forced = [0] * (m + 1)
    for (kind, p, *_), v in count.items():
        if kind == "forced":
            forced[p] += v
    for p in range(1, m + 1):
        count["free", p] = n - ones[p - 1] - forced[p]
    return [count[s] for s in states], n * (m + x)


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

    lam_at = {a: lam(fam, a) for a in range(2, m + 1)}  # each ratio once

    def add(src, dst, prob, steps):
        entries[index[src]][index[dst]] = entries[index[src]][index[dst]] + (
            RationalFn.monomial(prob, steps)
        )

    def forced_entry(c):
        f = c + x
        return ("forced", c, f) if f <= m else ("forced", c, m + 1)

    for p in range(1, m):
        stay = lam_at[m - p + 1]
        add(("free", p), ("free", p + 1), stay, 1)
        chain = 1 - stay
        for c in range(p + x + 2, m + 1):
            prob = chain * (1 - lam_at[m - c + 2])
            add(("free", p), forced_entry(c), prob, c - p)
            chain *= lam_at[m - c + 2]
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
        prob = chain * (1 - lam_at[m - c + 2])
        add(("bridge", x), forced_entry(c), prob, c)
        chain *= lam_at[m - c + 2]
    add(("bridge", x), ("bridge", 1), chain, m + 1)

    tm = TransferMatrix(fam, entries, states,
                        visits=_loco_visits(fam, states))
    tm.check_stochastic()
    return tm
