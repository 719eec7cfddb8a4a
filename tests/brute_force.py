"""Brute-force oracles the tests compare the package's routes against."""

from fractions import Fraction
from math import lcm

from ccpsd.codebook import CLOCKED_KINDS, Codebook, automaton, forbidden_patterns


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
