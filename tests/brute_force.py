"""Brute-force oracles the tests compare the package's routes against."""

from fractions import Fraction
from math import lcm

import numpy as np

from ccpsd.codebook import CLOCKED_KINDS, Codebook, automaton, forbidden_patterns
from ccpsd.cyclo import AutocorrSeries


def contains_forbidden(bits, patterns):
    """Whether any pattern occurs in ``bits``, by scanning every window."""
    n = len(bits)
    for p in patterns:
        k = len(p)
        for i in range(n - k + 1):
            if tuple(bits[i : i + k]) == p:
                return True
    return False


def brute_force_codebook(family):
    """Filter all 2^m strings; test oracle for enumerate_codebook."""
    m = family.m
    patterns = forbidden_patterns(family)
    words = []
    for v in range(2 ** m):
        bits = tuple((v >> (m - 1 - i)) & 1 for i in range(m))
        if not contains_forbidden(bits, patterns):
            words.append(bits)
    if family.kind in CLOCKED_KINDS:
        allzero, allone = (0,) * m, (1,) * m
        words = [w for w in words if w != allzero and w != allone]
    return Codebook(family=family, words=words)


def depth_first_words(family):
    """The family's words listed depth first over its constraint automaton,
    most-significant bit first, with the clocked kinds' constant words
    filtered out by their bit sums: the reference for the head/tail join of
    ``enumerate_codebook``."""
    m, auto = family.m, automaton(family)
    delta, bits, words = auto.delta, [], []
    stack = [(-1, None, 0)]  # (index of the bit, the bit, state after)
    while stack:
        depth, b, s = stack.pop()
        if depth >= 0:
            del bits[depth:]
            bits.append(b)
        left = m - depth - 1
        if not left:
            words.append(tuple(bits))
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
    words = np.array(codebook.words, dtype=np.int64)
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

    return AutocorrSeries(period=period, total=total, periodic=periodic)


def brute_force_ostd(fstd, k_bound):
    """Oracle for the clocked BFS: enumerate all label-free paths up to k_bound steps."""
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
                else:
                    raise ValueError("path exceeds the clocked run bound")
    return {
        key: sorted((steps, p) for steps, p in runs.items())
        for key, runs in edges.items()
    }


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


def dense_gauss_jordan(a, b):
    """a X = b by Gauss-Jordan over every column of every row, pivoting on
    the first nonzero entry at or below the diagonal."""
    n = len(a)
    m = [list(a[i]) + list(b[i]) for i in range(n)]
    width = len(m[0])
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [inv * v for v in m[col]]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [m[r][c] - f * m[col][c] for c in range(width)]
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
        piv = next(r for r in range(k, n) if rows[r][k] != 0)
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
