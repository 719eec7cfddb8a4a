"""Brute-force oracles the tests compare the package's routes against."""

from fractions import Fraction

from ccpsd.codebook import CLOCKED_KINDS, Codebook, forbidden_patterns


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
    """Filter all 2^m strings; test oracle for the DFS enumeration."""
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
