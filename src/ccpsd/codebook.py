"""Constrained codebooks, forbidden-pattern sets, and group cardinalities.

Families:

* ``iid``           -- unconstrained fair-coin stream (baseline)
* ``ax`` / ``sx``   -- infinite-length constrained sequences (no codeword length)
* ``aloco``         -- length-m codewords avoiding {1 0^j 1 : 1 <= j <= x},
                       bridged by x zeros, or x ones when both boundary bits are 1
* ``loco``          -- length-m codewords additionally avoiding {0 1^j 0},
                       bridged by x no-write symbols
* ``caloco``/``cloco`` -- the self-clocked variants (all-zero/all-one words removed)

Words are stored most-significant-bit first and listed in ascending
lexicographic order.  The group cardinalities that the closed forms need
come from a cached dynamic program over the constraint automaton, so their
cost grows with the length, not with N.  ``enumerate_codebook`` counts N
that way first and lists no codebook of more than ``ENUMERATION_LIMIT``
words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

KINDS = ("iid", "ax", "sx", "aloco", "loco", "caloco", "cloco")
INFINITE_KINDS = ("ax", "sx")
CLOCKED_KINDS = ("caloco", "cloco")
# Most words enumerate_codebook lists.  Enumerating commands peak at about
# 640 MB RSS for the N = 922,111 words of aloco x=1 m=24; m=26 would take
# about three times that.
ENUMERATION_LIMIT = 1 << 20


@dataclass(frozen=True)
class ConstraintFamily:
    kind: str
    x: int
    m: int | None = None  # None for the infinite-length families

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "iid":
            if self.x != 0 or self.m is not None:
                raise ValueError("iid streams take x=0 and no codeword length")
            return
        if self.x < 1:
            raise ValueError("x must be >= 1")
        if self.kind in INFINITE_KINDS:
            if self.m is not None:
                raise ValueError(f"{self.kind} takes no codeword length")
        else:
            if self.m is None or self.m < 1:
                raise ValueError("finite families need m >= 1")
            if self.kind in CLOCKED_KINDS and self.m < 2:
                raise ValueError("clocked families need m >= 2")

    @property
    def uses_zero_one_constraint(self):
        """True when both 0-runs and 1-runs are constrained (the symmetric set)."""
        return self.kind in ("sx", "loco", "cloco")

    @property
    def bridging(self):
        if self.kind in INFINITE_KINDS:
            return None
        return "zeros_or_ones" if self.kind in ("aloco", "caloco") else "z_symbols"


def forbidden_patterns(family):
    """The forbidden windows as bit tuples."""
    x = family.x
    pats = [(1,) + (0,) * j + (1,) for j in range(1, x + 1)]
    if family.uses_zero_one_constraint:
        pats += [(0,) + (1,) * j + (0,) for j in range(1, x + 1)]
    return pats


def contains_forbidden(bits, patterns):
    n = len(bits)
    for p in patterns:
        k = len(p)
        for i in range(n - k + 1):
            if tuple(bits[i : i + k]) == p:
                return True
    return False


def _max_pattern_len(family):
    return family.x + 2


def enumerate_codebook(family):
    """All valid words of length family.m, lexicographically ascending."""
    if family.kind in INFINITE_KINDS:
        raise ValueError("infinite-length families have no codebook")
    m = family.m
    n_words = group_cardinalities(family, m)[0]
    if n_words > ENUMERATION_LIMIT:
        raise ValueError(
            f"{family.kind} x={family.x} m={m} has {n_words} words, more than "
            f"the enumeration limit of {ENUMERATION_LIMIT}")
    patterns = forbidden_patterns(family)
    ctx = _max_pattern_len(family) - 1  # bits of history that matter

    words = []

    def extend(prefix):
        if len(prefix) == m:
            words.append(tuple(prefix))
            return
        for b in (0, 1):
            tail = prefix[-ctx:] + [b]
            if not contains_forbidden(tail, patterns):
                extend(prefix + [b])

    extend([])
    if family.kind in CLOCKED_KINDS:
        allzero, allone = (0,) * m, (1,) * m
        words = [w for w in words if w != allzero and w != allone]
    return Codebook(family=family, words=words)


@dataclass
class Codebook:
    family: ConstraintFamily
    words: list = field(default_factory=list)

    def __post_init__(self):
        self.words = sorted(tuple(w) for w in self.words)

    @property
    def N(self):
        return len(self.words)

    @property
    def N1(self):
        """Words starting 00."""
        return sum(1 for w in self.words if w[:2] == (0, 0))

    @property
    def N2(self):
        """Words starting 11."""
        return sum(1 for w in self.words if w[:2] == (1, 1))

    @property
    def N3(self):
        """Words starting 10 (equivalently 1 0^{x+1} once length permits)."""
        return sum(1 for w in self.words if w[:2] == (1, 0))

    def as_bitstrings(self):
        return ["".join(map(str, w)) for w in self.words]


@lru_cache(maxsize=None)
def _prefix_class_counts(family):
    """(N, N1, N2, N3) of pattern-free words of length family.m >= 2.

    Dynamic program over the constraint automaton: a state is (first two
    bits, last x+1 bits), and appending a bit is allowed when no forbidden
    pattern ends at it.  Nothing is enumerated.
    """
    patterns = forbidden_patterns(family)
    counts = {(w, w): 1 for w in ((0, 0), (0, 1), (1, 0), (1, 1))}
    for _ in range(family.m - 2):
        nxt = {}
        for (head, tail), c in counts.items():
            for b in (0, 1):
                cand = tail + (b,)
                if any(cand[-len(p):] == p for p in patterns):
                    continue
                key = (head, cand[-(family.x + 1):])
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    by_head = dict.fromkeys(((0, 0), (1, 1), (1, 0), (0, 1)), 0)
    for (head, _), c in counts.items():
        by_head[head] += c
    return (sum(by_head.values()), by_head[(0, 0)], by_head[(1, 1)],
            by_head[(1, 0)])


def group_cardinalities(family, length):
    """(N, N1, N2, N3) at a given word length; 0 below prefix length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    # rejects the kinds without codewords, as enumeration would
    at_length = ConstraintFamily(family.kind, family.x, length)
    if length < 2:
        return 2, 0, 0, 0
    n, n1, n2, n3 = _prefix_class_counts(at_length)
    if family.kind in CLOCKED_KINDS:
        # the all-zero and all-one words are always pattern-free
        return n - 2, n1 - 1, n2 - 1, n3
    return n, n1, n2, n3


def zeta(family):
    """Probability that a uniformly drawn word starts with 1 (A-type families)."""
    n, _, n2, n3 = group_cardinalities(family, family.m)
    return Fraction(n2 + n3, n)


def alpha(family, length):
    """N3/(N2+N3) at the given length; the A-type continuation ratio."""
    _, _, n2, n3 = group_cardinalities(family, length)
    if n2 + n3 == 0:
        raise ValueError(f"alpha undefined at length {length}")
    return Fraction(n3, n2 + n3)


def lam(family, length):
    """N1/(N/2) at the given length; the symmetric-family continuation ratio."""
    n, n1, _, _ = group_cardinalities(family, length)
    if n == 0:
        raise ValueError(f"empty codebook at length {length}")
    return Fraction(2 * n1, n)
