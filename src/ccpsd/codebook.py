"""Constrained codebooks, forbidden patterns, their automaton, group cardinalities.

Families:

* ``iid``           -- unconstrained fair-coin stream (baseline)
* ``ax`` / ``sx``   -- infinite-length constrained sequences (no codeword length)
* ``aloco``         -- length-m codewords avoiding {1 0^j 1 : 1 <= j <= x},
                       bridged by x zeros, or x ones when both boundary bits are 1
* ``loco``          -- length-m codewords additionally avoiding {0 1^j 0},
                       bridged by x no-write symbols
* ``caloco``/``cloco`` -- the self-clocked variants (all-zero/all-one words removed)

Every count and listing comes from one model of the constraint: an
Aho-Corasick automaton over ``forbidden_patterns`` and its cached table of
pattern-free continuations.  Group cardinalities read the table, so their
cost grows with the length, not with N.  ``enumerate_codebook`` lists words
depth first over the automaton, most-significant bit first and in ascending
lexicographic order, and refuses more than ``ENUMERATION_LIMIT`` words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

INFINITE_KINDS = ("ax", "sx")
CLOCKED_KINDS = ("caloco", "cloco")
FINITE_KINDS = ("aloco", "loco") + CLOCKED_KINDS
KINDS = ("iid",) + INFINITE_KINDS + FINITE_KINDS
# Most words enumerate_codebook lists.  Enumerating commands peak at about
# 640 MB RSS for the N = 922,111 words of aloco x=1 m=24; m=26 would take
# about three times that.
ENUMERATION_LIMIT = 1 << 20
# Maps the bytes 0 and 1 of a word to the characters "0" and "1".
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


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


class Automaton:
    """Aho-Corasick table of a forbidden-pattern set, with completion counts.

    States are the proper prefixes of the patterns, shortest first, then one
    dead state; state 0 is the empty prefix.  A live state stands for the
    longest suffix of the bits read that is a proper pattern prefix, and
    ``delta[s][b]`` is the state after reading bit b: dead once a pattern
    has ended, and dead ever after.
    """

    def __init__(self, patterns):
        prefixes = sorted({p[:k] for p in patterns for k in range(len(p))},
                          key=lambda q: (len(q), q))
        index = {q: i for i, q in enumerate(prefixes)}
        patterns = set(patterns)
        dead = len(prefixes)
        self.delta = [[dead, dead] for _ in range(dead + 1)]
        fail = {0: 0}  # the longest proper suffix state of a live prefix
        for q in prefixes:
            i = index[q]
            if i not in fail:  # a shorter pattern ends inside q
                continue
            for b in (0, 1):
                t = q + (b,)
                # where the longest proper suffix of t leads
                back = self.delta[fail[i]][b] if q else 0
                if t in patterns or back == dead:
                    continue
                self.delta[i][b] = index.get(t, back)
                if t in index:
                    fail[index[t]] = back
        self._counts = [[1] * dead + [0]]

    def count(self, r, s):
        """Pattern-free r-bit continuations from state s."""
        if r < 0:
            return 0
        rows = self._counts
        while len(rows) <= r:
            prev = rows[-1]
            rows.append([prev[a] + prev[b] for a, b in self.delta])
        return rows[r][s]

    def walk(self, length):
        """Every pattern-free ``length``-bit string, lexicographically
        ascending, listed depth first."""
        self.count(length, 0)  # fills the rows read below
        rows, delta, bits = self._counts, self.delta, []
        stack = [(-1, None, 0)]  # (index of the bit, the bit, state after)
        while stack:
            depth, b, s = stack.pop()
            if depth >= 0:
                del bits[depth:]
                bits.append(b)
            left = length - depth - 1
            if not left:
                yield tuple(bits)
                continue
            for c in (1, 0):  # 0 is popped, and so listed, first
                t = delta[s][c]
                if rows[left - 1][t]:
                    stack.append((depth + 1, c, t))


_automaton = lru_cache(maxsize=None)(Automaton)


def automaton(family):
    """The cached constraint automaton of a family's forbidden patterns."""
    return _automaton(tuple(forbidden_patterns(family)))


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
    clocked = family.kind in CLOCKED_KINDS
    words = [w for w in automaton(family).walk(m)
             if not clocked or 0 < sum(w) < m]  # clocked: no constant word
    return Codebook(family=family, words=words)


@dataclass
class Codebook:
    family: ConstraintFamily
    words: list = field(default_factory=list)  # bit tuples, ascending

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
        return [bytes(w).translate(_BIT_CHARS).decode() for w in self.words]


def group_cardinalities(family, length):
    """(N, N1, N2, N3) at a given word length; 0 below prefix length.

    Read from the automaton's completion counts; nothing is enumerated.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    # rejects the kinds without codewords, as enumeration would
    ConstraintFamily(family.kind, family.x, length)
    auto = automaton(family)
    d = auto.delta
    n = auto.count(length, 0)
    n1, n2, n3 = (auto.count(length - 2, d[d[0][a]][b])
                  for a, b in ((0, 0), (1, 1), (1, 0)))
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
