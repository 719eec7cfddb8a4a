"""Brute-force oracles the tests compare the package's routes against."""

from fractions import Fraction
from math import lcm

import numpy as np

from ccpsd import oracle
from ccpsd.codebook import (CLOCKED_KINDS, Automaton, Codebook,
                            ConstraintFamily, forbidden_patterns)
from ccpsd.cyclo import AutocorrSeries
from ccpsd.ratfn import ONE, ZERO, RationalFn, eliminate
from ccpsd.transfer import TransferMatrix


def contains_forbidden(bits, patterns):
    """Whether any pattern occurs in ``bits``, by scanning every window."""
    n = len(bits)
    for p in patterns:
        k = len(p)
        for i in range(n - k + 1):
            if tuple(bits[i : i + k]) == p:
                return True
    return False


class ListedCodebook(Codebook):
    """A codebook of given words, which may be any subset of a family's:
    N counts them."""

    def __init__(self, family, words):
        super().__init__(family)
        self.words = words

    @property
    def N(self):
        return len(self.words)


def word_array(words, dtype=np.int64):
    """The listed words, ``bytes`` of one 0/1 byte per bit, as an N x m
    array, built bit by bit from each word's ints."""
    return np.array([list(w) for w in words], dtype=dtype)


def repeat_sx_levels(seed, n, x):
    """``oracle._sx_levels`` from the same chunks of draws, each chunk's
    blocks written by repeating its alternating block signs."""
    rng = oracle._rng(seed)
    y = np.empty(n, dtype=np.int8)
    pos = 0
    odd = False  # whether the next block is a zero-run
    while pos < n:
        c = oracle._chunk(n - pos, x + 2, oracle.CHUNK_SYMBOLS)
        lens = oracle._geometric_half(rng, c, x)
        end = np.cumsum(lens) + pos
        k = int(np.searchsorted(end, n))  # first block reaching symbol n
        if k < c:
            lens = lens[:k + 1]
            lens[k] -= end[k] - n
        signs = np.full(len(lens), -1, dtype=np.int8)
        signs[int(odd)::2] = 1
        top = pos + int(lens.sum())
        y[pos:top] = np.repeat(signs, lens)
        pos = top
        odd ^= len(lens) % 2 == 1
    return y


def brute_force_codebook(family):
    """Filter all 2^m strings; test oracle for enumerate_codebook."""
    m = family.m
    patterns = forbidden_patterns(family)
    words = []
    for v in range(2 ** m):
        bits = bytes((v >> (m - 1 - i)) & 1 for i in range(m))
        if not contains_forbidden(bits, patterns):
            words.append(bits)
    if family.kind in CLOCKED_KINDS:
        allzero, allone = bytes(m), b"\1" * m
        words = [w for w in words if w != allzero and w != allone]
    return ListedCodebook(family, words)


def depth_first_words(family):
    """The family's words listed depth first over the unclocked automaton of
    its forbidden patterns, most-significant bit first, with the clocked
    kinds' constant words filtered out by their bit sums: the reference for
    the head/tail join of ``enumerate_codebook``."""
    m, auto = family.m, Automaton(tuple(forbidden_patterns(family)))
    delta, bits, words = auto.delta, [], []
    stack = [(-1, None, 0)]  # (index of the bit, the bit, state after)
    while stack:
        depth, b, s = stack.pop()
        if depth >= 0:
            del bits[depth:]
            bits.append(b)
        left = m - depth - 1
        if not left:
            words.append(bytes(bits))
            continue
        for c in (1, 0):  # 0 is popped, and so listed, first
            t = delta[s][c]
            if auto.count(left - 1, t):
                stack.append((depth + 1, c, t))
    if family.kind in CLOCKED_KINDS:
        words = [w for w in words if 0 < sum(w) < m]
    return words


def _signal_values(codebook, signal):
    """Word bits, word value matrix W (N x m) and the bridge value table f.

    A bridge value depends only on the last bit a of the left word and the
    first bit c of the right word: it is f[a][c].
    """
    fam = codebook.family
    words = word_array(codebook.words)
    if signal == "y":
        w = 2 * words - 1
        if fam.bridging == "z_symbols":
            f = [[0, 0], [0, 0]]  # z symbols sit at level 0
        else:
            f = [[-1, -1], [-1, 1]]
    elif signal == "x":
        w = words
        if fam.bridging == "z_symbols":
            raise ValueError("no 0/1 indicator for z-symbol bridging")
        f = [[0, 0], [0, 1]]
    else:
        raise ValueError(f"unknown signal kind {signal!r}")
    return words, w, f


def listed_autocorr(codebook, signal="y"):
    """Reference for ``cyclo.exact_autocorr``: the same series from
    statistics of the listed words, the boundary-bit classes, the column
    sums split by first and by last bit, and the Gram matrix of the word
    levels, each taken over a numpy array of the words."""
    fam = codebook.family
    m, x = fam.m, fam.x
    period = m + x
    kmax = (m + 2 * x - 1) + period
    words, w, f = _signal_values(codebook, signal)
    n = w.shape[0]
    n2, n3 = n * n, n * n * n

    # Bridge statistics over the N x N (left, right) word pairs come from
    # boundary-bit classes: last_ind[a] / first_ind[c] indicate the words
    # whose last bit is a / first bit is c.
    last_ind = np.array([1 - words[:, -1], words[:, -1]])
    first_ind = np.array([1 - words[:, 0], words[:, 0]])
    joint = (last_ind @ first_ind.T).tolist()  # [a][c]
    n_last = [sum(row) for row in joint]
    n_first = [joint[0][c] + joint[1][c] for c in (0, 1)]
    brow = [f[a][0] * n_first[0] + f[a][1] * n_first[1] for a in (0, 1)]
    bcol = [f[0][c] * n_last[0] + f[1][c] * n_last[1] for c in (0, 1)]
    bridge_sum = brow[0] * n_last[0] + brow[1] * n_last[1]
    bridge_sq_sum = sum(f[a][c] ** 2 * n_last[a] * n_first[c]
                        for a in (0, 1) for c in (0, 1))
    # per word: bridges to its left summed, times bridges to its right summed
    bcol_brow = sum(bcol[c] * brow[a] * joint[a][c]
                    for a in (0, 1) for c in (0, 1))
    w_brow = [brow[0] * u + brow[1] * v for u, v in zip(*(last_ind @ w).tolist())]
    w_bcol = [bcol[0] * u + bcol[1] * v for u, v in zip(*(first_ind @ w).tolist())]
    gram = (w.T @ w).tolist()

    col = w.sum(axis=0).tolist()
    far = [c * bridge_sum * n for c in col]

    # Every pair mean is an integer over N^4 and every position mean one
    # over N^2; position q < m of a period is a word bit, q >= m a bridge.
    def pair(qa, qc, dt):
        """Mean of position qa of period 0 times position qc of period dt."""
        if qa < m and qc < m:
            return gram[qa][qc] * n3 if dt == 0 else col[qa] * col[qc] * n2
        if qa >= m and qc >= m:
            if dt == 0:
                return bridge_sq_sum * n2
            return bcol_brow * n if dt == 1 else bridge_sum * bridge_sum
        if qa < m:  # the word, then a bridge dt periods on
            return w_brow[qa] * n2 if dt == 0 else far[qa]
        # a bridge, then a word dt >= 1 periods on
        return w_bcol[qc] * n2 if dt == 1 else far[qc]

    pos = [c * n for c in col] + [bridge_sum] * x
    den = n2 * n2 * period
    total = []
    for k in range(kmax + 1):
        num = 0
        for qa in range(period):
            dt, qc = divmod(qa + k, period)
            num += pair(qa, qc, dt)
        total.append(Fraction(num, den))
    cycle = [Fraction(sum(u * v for u, v in zip(pos, pos[s:] + pos[:s])), den)
             for s in range(period)]
    periodic = [cycle[k % period] for k in range(kmax + 1)]

    aperiodic = [t - p for t, p in zip(total, periodic)]
    return AutocorrSeries(period=period, total=total, periodic=periodic,
                          aperiodic=aperiodic)


def brute_force_ostd(fstd, k_bound, truncate=False):
    """Oracle for the clocked BFS: enumerate all label-free paths up to
    k_bound steps.  A longer path raises, unless ``truncate`` drops it."""
    out = {i: [] for i in range(len(fstd.states))}
    for f, t, _, p in fstd.edges:
        out[f].append((t, p))
    lab = [i for i, s in enumerate(fstd.states) if s.labeled]
    lab_pos = {i: k for k, i in enumerate(lab)}
    edges = {}

    for j, start in enumerate(lab):
        stack = [(start, 0, Fraction(1))]
        while stack:
            node, depth, prob = stack.pop()
            for t, p in out[node]:
                q = prob * p
                if t in lab_pos:
                    key = (j, lab_pos[t])
                    edges.setdefault(key, {}).setdefault(depth + 1, Fraction(0))
                    edges[key][depth + 1] += q
                elif depth + 1 < k_bound:
                    stack.append((t, depth + 1, q))
                elif not truncate:
                    raise ValueError("path exceeds the clocked run bound")
    return {
        key: sorted((steps, p) for steps, p in runs.items())
        for key, runs in edges.items()
    }


def fraction_bfs(inputs):
    """Reference for ``clocked.bfs_ostd``, which reads its run lists from
    the eliminated diagram: a bounded breadth-first search that pushes
    ``Fraction`` masses from every labeled state through the per-bit edges
    for k_eff + 1 steps, absorbing them at labeled states, with the mass
    left over and each source's total (rescanning every edge) checked as
    ``bfs_ostd`` checks them, under the same messages."""
    lab = [i for i, flag in enumerate(inputs.labeled) if flag]
    lab_pos = {i: k for k, i in enumerate(lab)}
    mass = [[Fraction(0)] * len(lab) for _ in range(inputs.n)]
    for j, i in enumerate(lab):
        mass[i][j] = Fraction(1)

    edges = {}
    for step in range(1, inputs.k_eff + 2):
        nxt = [[Fraction(0)] * len(lab) for _ in range(inputs.n)]
        for f, t, p in inputs.transitions:
            row = mass[f]
            if any(row):
                dst = nxt[t]
                for j, v in enumerate(row):
                    if v:
                        dst[j] += p * v
        for i in lab:
            for j, v in enumerate(nxt[i]):
                if v:
                    edges.setdefault((j, lab_pos[i]), []).append((step, v))
            nxt[i] = [Fraction(0)] * len(lab)
        mass = nxt

    leftover = sum(sum(row, Fraction(0)) for row in mass)
    if leftover != 0:
        raise ValueError(
            f"probability {leftover} not absorbed within k_eff+1 steps"
        )
    for j in range(len(lab)):
        tot = sum(
            (p for (src, _), runs in edges.items() if src == j for _, p in runs),
            Fraction(0),
        )
        if tot != 1:
            raise ValueError(f"source {j} total probability {tot} != 1")
    return edges


def g_at_one(tm):
    """G(1) as nested lists of Fractions, entry by entry by ``evaluate``."""
    return [[e.evaluate(1) if e else Fraction(0) for e in row]
            for row in tm.entries]


def fraction_stationary(tm):
    """Reference for ``TransferMatrix.stationary``: (G(1)^T - I) pi = 0 with
    the normalisation replacing the last equation, solved by dense
    Gauss-Jordan elimination on Fraction rows."""
    g1 = g_at_one(tm)
    n = tm.n
    a = [[g1[j][i] - (1 if i == j else 0) for j in range(n)]
         for i in range(n)]
    a[n - 1] = [Fraction(1)] * n
    b = [[Fraction(0)]] * (n - 1) + [[Fraction(1)]]
    pi = tuple(row[0] for row in dense_gauss_jordan(a, b))
    if any(p < 0 for p in pi):
        raise ValueError("stationary distribution has negative entries")
    return pi


def derivative_at(f, z):
    """R'(z) of the RationalFn f at an exact point (int or Fraction), the
    reduced Fraction of ``RationalFn.derivative_parts``."""
    return Fraction(*f.derivative_parts(z))


def fraction_prob_one(tm, pi=None):
    """Reference for ``TransferMatrix.prob_one``: 1 / (pi G'(1) 1) with
    G'(1) entry by entry from ``derivative_at``, and pi from
    ``fraction_stationary`` unless it is given."""
    dg = [[derivative_at(e, 1) if e else Fraction(0) for e in row]
          for row in tm.entries]
    pi = fraction_stationary(tm) if pi is None else pi
    mean = sum(p * sum(row) for p, row in zip(pi, dg))
    return 1 / mean


def fraction_check_stochastic(tm):
    """Reference for ``TransferMatrix.check_stochastic``: each row of G(1)
    summed as Fractions."""
    for i, row in enumerate(g_at_one(tm)):
        if sum(row) != 1:
            raise ValueError(f"row {i} of G(1) sums to {sum(row)} != 1")
    return True


def fraction_reduce_states(g1):
    """Reference for ``transfer.reduce_states``: the same state reduction
    with every entry a ``Fraction``, summed and divided entry by entry.
    Removing u with loop w joins each predecessor p to each successor s by
    out[p][u] / (1 - w) * out[u][s]; a loop of 1 raises ``ValueError``
    under the same message."""
    n = len(g1)
    out = {i: {j: Fraction(v) for j, v in enumerate(row) if j and v}
           for i, row in enumerate(g1)}
    for k in range(1, n):
        out[k]["T", k] = Fraction(1)
    for u in range(n - 1, 0, -1):
        succ = out.pop(u)
        loop = succ.pop(u, Fraction(0))
        if loop == 1:
            raise ValueError(f"G(1) is not irreducible: state {u} has no "
                             "mass to the states before it")
        succ = {s: v / (1 - loop) for s, v in succ.items()}
        for row in out.values():
            if u in row:
                w = row.pop(u)
                for s, v in succ.items():
                    row[s] = row.get(s, Fraction(0)) + w * v
    visits = [Fraction(1)] + [out[0].get(("T", k), Fraction(0))
                              for k in range(1, n)]
    total = sum(visits)
    return tuple(v / total for v in visits)


def fraction_merge_equivalent_states(fstd):
    """Reference for ``fstd.merge_equivalent_states``: the same refinement
    with every signature a sorted tuple of ((symbol, block), summed
    ``Fraction``) pairs, each edge added to ``Fraction(0)``."""
    n = len(fstd.states)
    block = {i: fstd.states[i].category for i in range(n)}
    out = {i: [] for i in range(n)}
    for f, t, sym, p in fstd.edges:
        out[f].append((t, sym, p))

    count = len(set(block.values()))
    while True:
        sigs = {}
        for i in range(n):
            agg = {}
            for t, sym, p in out[i]:
                key = (sym, block[t])
                agg[key] = agg.get(key, Fraction(0)) + p
            sigs[i] = (block[i], tuple(sorted(agg.items())))
        newblock = {}
        seen = {}
        for i in range(n):
            if sigs[i] not in seen:
                seen[sigs[i]] = len(seen)
            newblock[i] = seen[sigs[i]]
        if len(seen) == count:
            break
        block, count = newblock, len(seen)

    reps = {}
    for i in sorted(range(n), key=lambda i: fstd.states[i].sort_key):
        reps.setdefault(block[i], i)
    rank = {b: k for k, b in enumerate(reps)}
    edges = []
    for k, r in enumerate(reps.values()):
        agg = {}
        for t, sym, p in out[r]:
            key = (rank[block[t]], sym)
            agg[key] = agg.get(key, Fraction(0)) + p
        edges += [(k, t, sym, p) for (t, sym), p in agg.items()]
    return [fstd.states[r] for r in reps.values()], edges


def fraction_grid_visits(fstd, labeled):
    """Reference for ``fstd._grid_visits``: the same forward masses, each a
    ``Fraction`` multiplied and summed edge by edge."""
    period = fstd.family.m + fstd.family.x
    out = [[] for _ in fstd.states]
    for f, t, _, p in fstd.edges:
        out[f].append((t, p))
    mass = {next(i for i, s in enumerate(fstd.states)
                 if s.position == period - 1): Fraction(1)}
    kept = {}
    for step in range(3 * period):
        step_mass = {}
        for i, w in mass.items():
            for t, p in out[i]:
                step_mass[t] = step_mass.get(t, 0) + w * p
        mass = step_mass
        if step >= 2 * period:
            kept.update(mass)
    return tuple(kept.get(i, Fraction(0)) for i in labeled), period


def check_nonnegative_series(tm, count=40):
    """Raise unless the first ``count`` power-series coefficients (run-length
    probabilities) of every entry of ``tm`` are >= 0."""
    for row in tm.entries:
        for e in row:
            if any(c < 0 for c in e.series_coefficients(count)):
                raise ValueError("negative run probability")
    return True


# ---------------------------------------------------------------------------
# The transition-run route: runs between transitions instead of between ones
# ---------------------------------------------------------------------------


def alternate_ax(x):
    """Two-state transition-run form of the ax process."""
    fam = ConstraintFamily("ax", x)
    den = [Fraction(2), -Fraction(1)]  # 2 - D
    g01 = RationalFn([Fraction(0), Fraction(1)], den)
    g10 = RationalFn([Fraction(0)] * (x + 1) + [Fraction(1)], den)
    return TransferMatrix(fam, [[ZERO, g01], [g10, ZERO]],
                          ["after_one", "after_zero"], origin="alternate")


def alternate_sx(x):
    """One-state transition-run form of the sx process."""
    fam = ConstraintFamily("sx", x)
    g = RationalFn([Fraction(0)] * (x + 1) + [Fraction(1)],
                   [Fraction(2), -Fraction(1)])
    return TransferMatrix(fam, [[g]], ["toggle"], origin="alternate")


def nrzi_psd_symbolic(tm):
    """Exact antipodal PSD via the transition-run (precoded) formulation.

    The input matrix tracks runs between transitions; the output equals the
    antipodal PSD of the corresponding level signal on the unit circle.
    lambda y with (I + G) y = rho is the one edge left from a source, joined
    to each state j by lambda_j, to a sink, joined from each state i by
    rho_i, over edges -G, once every state is eliminated.
    """
    pi = tm.stationary
    p1 = tm.prob_one
    n = tm.n
    d = RationalFn.monomial(Fraction(1), 1)
    one_minus_d = ONE - d

    gu = [sum((tm.entries[i][j] for j in range(n)), ZERO) for i in range(n)]
    rho = [(ONE - gu[i]) / one_minus_d for i in range(n)]
    pig = [sum((RationalFn.const(pi[i]) * tm.entries[i][j] for i in range(n)),
               ZERO) for j in range(n)]
    lam_pref = RationalFn.const(p1) * d / one_minus_d
    lam = [lam_pref * (RationalFn.const(pi[j]) - pig[j]) for j in range(n)]

    pi_rho = sum((RationalFn.const(pi[i]) * rho[i] for i in range(n)), ZERO)
    w0 = ONE / one_minus_d - RationalFn.const(p1) * d * pi_rho / one_minus_d - ONE

    out = {i: {j: -e for j, e in enumerate(row) if e}
           for i, row in enumerate(tm.entries)}
    for i in range(n):
        if rho[i]:
            out[i]["T"] = rho[i]
    out["S"] = {j: v for j, v in enumerate(lam) if v}
    eliminate(out, range(n))
    phi = w0 - out["S"].get("T", ZERO)
    return ONE + phi + phi.substitute_inverse()


# ---------------------------------------------------------------------------
# Reference exact arithmetic: dense, without shortcuts
# ---------------------------------------------------------------------------


def _ref_trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ref_trim(out)


def ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n))


def ref_derivative(p):
    return _ref_trim(i * c for i, c in enumerate(p))[1:]


def _ref_divmod(a, b):
    rem, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        coef = rem[i + len(b) - 1] / b[-1]
        q[i] = coef
        for j, bj in enumerate(b):
            rem[i + j] -= coef * bj
    return _ref_trim(q), _ref_trim(rem)


def euclid_canonical(num, den):
    """(num, den) tuples of num/den reduced by Euclid's gcd, den monic."""
    num, den = _ref_trim(num), _ref_trim(den)
    if not num:
        return (), (Fraction(1),)
    a, b = num, den
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    num, den = _ref_divmod(num, a)[0], _ref_divmod(den, a)[0]
    lead = den[-1]
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


def reference_op(op, a, b):
    """Canonical (num, den) of a op b for '+', '-', '*' or '/' on
    (num, den) pairs, cross-multiplied over the product denominator."""
    (an, ad), (bn, bd) = a, b
    if op == "-":
        op, bn = "+", [-c for c in bn]
    if op == "+":
        return euclid_canonical(ref_add(ref_mul(an, bd), ref_mul(bn, ad)),
                                ref_mul(ad, bd))
    if op == "*":
        return euclid_canonical(ref_mul(an, bn), ref_mul(ad, bd))
    return euclid_canonical(ref_mul(an, bd), ref_mul(ad, bn))


def horner(p, z):
    """p(z) by Horner's rule."""
    acc = 0 * z
    for c in reversed(p):
        acc = acc * z + c
    return acc


class GaussianRational:
    """re + i im with ``Fraction`` parts: exact complex arithmetic for
    ``horner`` and ``dense_gauss_jordan`` at rational points of the unit
    circle."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def _of(v):
        return v if isinstance(v, GaussianRational) else GaussianRational(v)

    def __add__(self, other):
        other = self._of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._of(other) - self

    def __mul__(self, other):
        other = self._of(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        mag = other.re * other.re + other.im * other.im
        return self * GaussianRational(other.re / mag, -other.im / mag)

    def __rtruediv__(self, other):
        return self._of(other) / self

    def __eq__(self, other):
        other = self._of(other)
        return self.re == other.re and self.im == other.im

    __hash__ = None


def unit_circle_point(t):
    """z = exp(-2 pi i f) with tan(pi f) = t, exactly, for a rational t."""
    t = Fraction(t)
    return GaussianRational((1 - t * t) / (1 + t * t), -2 * t / (1 + t * t))


def solved_psd_x(tm, z):
    """S_X(z) = p1 (2 Re(pi v) - 1) with (I - G(z)) v = 1 solved by dense
    Gauss-Jordan over ``GaussianRational``s, at a rational point z of the
    unit circle."""
    n = tm.n
    a = [[GaussianRational(int(i == j))
          - (horner(e.num, z) / horner(e.den, z) if e else 0)
          for j, e in enumerate(row)] for i, row in enumerate(tm.entries)]
    v = dense_gauss_jordan(a, [[GaussianRational(1)]] * n)
    pv = sum((p * row[0] for p, row in zip(tm.stationary, v)),
             GaussianRational(0))
    return tm.prob_one * (2 * pv.re - 1)


def dense_gauss_jordan(a, b):
    """a X = b by Gauss-Jordan elimination, pivoting on the first nonzero
    entry at or below the diagonal; a column with none raises ValueError.
    A row with a zero in the pivot column is left as it is, and so is each
    entry in a column where the pivot row is zero; neither changes a value."""
    n = len(a)
    m = [list(a[i]) + list(b[i]) for i in range(n)]
    width = len(m[0])
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError(f"singular system: column {col} has no pivot")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [inv * v for v in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [v - f * p if p else v for v, p in zip(m[r], m[col])]
    return [row[n:] for row in m]


def dense_bareiss(a, b):
    """a X = b over Fractions by fraction-free (Bareiss) elimination.

    Each row of [a | b] is scaled to ints by the lcm of its denominators.
    Step k sets every row i > k to (p r_i - r_i[k] r_k) / p_prev, over every
    column, where p is the pivot of step k and p_prev that of step k - 1; the
    division is exact, so the entries stay ints of the size of the minors.
    The pivot of each column is its first nonzero entry at or below the
    diagonal.  X follows by back-substitution.
    """
    n = len(a)
    rows = []
    for i in range(n):
        row = [Fraction(v) for v in list(a[i]) + list(b[i])]
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    width = len(rows[0])
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if piv is None:
            raise ValueError(f"singular system: column {k} has no pivot")
        rows[k], rows[piv] = rows[piv], rows[k]
        pivot = rows[k]
        p = pivot[k]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            rows[i] = row[:k] + [(p * row[j] - f * pivot[j]) // prev
                                 for j in range(k, width)]
        prev = p
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        x[i] = [(row[c] - sum(row[j] * x[j][c - n] for j in range(i + 1, n)
                              if row[j])) / Fraction(row[i])
                for c in range(n, width)]
    return x


def per_series_cosine_sum(r, freqs, with_pulse):
    """r[0] + 2 sum_k r[k] cos(2 pi f k) for one series, with one full-grid
    cosine per nonzero lag, times sinc(f)^2 when ``with_pulse``: the
    reference for the batched ``cyclo.cosine_series``."""
    out = np.full(len(freqs), r[0])
    for k in range(1, len(r)):
        if r[k] != 0.0:
            out += 2.0 * r[k] * np.cos(2 * np.pi * freqs * k)
    if with_pulse:
        out *= np.sinc(freqs) ** 2
    return out
