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
pattern-free continuations.  Group cardinalities and ``word_moments`` (the
counts of words with a given pair of bits set) read the table, so their cost
grows with the length, not with N.  A ``Codebook`` counts its N and lists its
words only when they are read, in ascending lexicographic order, by joining
halves: every pattern-free head of m // 2 bits, in order, is followed by each
of the ascending pattern-free tails read from the automaton state the head
ends in, and the tails of each state are listed once.  Listing refuses more
than ``ENUMERATION_LIMIT`` words; only ``codebook --out`` and the Monte-Carlo
streams of finite families list words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

INFINITE_KINDS = ("ax", "sx")
CLOCKED_KINDS = ("caloco", "cloco")
FINITE_KINDS = ("aloco", "loco") + CLOCKED_KINDS
KINDS = ("iid",) + INFINITE_KINDS + FINITE_KINDS
# Most words a Codebook lists.  `codebook --out` peaks at about 450 MB RSS
# for the N = 922,111 words of aloco x=1 m=24; m=26 would take about three
# times that.
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
        ascending: each head of ``length // 2`` bits, in order, joined to
        the ascending tails read from the state it ends in.  Tails are
        listed once per distinct end state."""
        dead = len(self.delta) - 1
        # (bit, state after) of each live step, the 0-step first
        steps = [[((b,), t) for b, t in enumerate(row) if t != dead]
                 for row in self.delta]

        def strings(state, n):
            """The ascending n-bit strings read from state, with end states."""
            level = [((), state)]
            for _ in range(n):
                level = [(w + b, t) for w, s in level for b, t in steps[s]]
            return level

        half = length // 2
        heads = strings(0, half)
        tails = {}
        for _, s in heads:
            if s not in tails:
                tails[s] = [w for w, _ in strings(s, length - half)]
        return [h + t for h, s in heads for t in tails[s]]

    def gram(self, length):
        """The length x length array whose entry (i, j) counts the
        pattern-free ``length``-bit strings with bits i and j both 1.

        Row 0 of ``rows`` counts the prefixes by the state they end in, and
        row i + 1 the prefixes whose bit i is 1; each bit steps them all
        forward by one matrix product.  Column j is those rows read against
        the completions of a 1 at bit j.  The counts are Python ints, exact
        at any length.
        """
        live = len(self.delta) - 1

        def steps(bits):
            """Live state s to live state t by ``bits``: how many ways."""
            t = np.zeros((live, live), object)
            for s, row in enumerate(self.delta[:live]):
                for b in bits:
                    if row[b] != live:
                        t[s, row[b]] += 1
            return t

        both, one = steps((0, 1)), steps((1,))
        self.count(length, 0)
        # row j: the completions of a 1 at bit j, by the state before it
        afters = np.array(self._counts[length - 1::-1], object)[
            :, [row[1] for row in self.delta[:live]]]
        rows = np.zeros((length + 1, live), object)
        rows[0, 0] = 1
        gram = np.zeros((length, length), object)
        for j, after in enumerate(afters):
            col = rows[:j + 1] @ after
            gram[j, j] = col[0]
            gram[j, :j] = gram[:j, j] = col[1:]
            ones = rows[0] @ one
            rows[:j + 1] = rows[:j + 1] @ both
            rows[j + 1] = ones
        return gram


_automaton = lru_cache(maxsize=None)(Automaton)


def automaton(family):
    """The cached constraint automaton of a family's forbidden patterns."""
    return _automaton(tuple(forbidden_patterns(family)))


def word_moments(family):
    """(N, G) of a finite family's codebook, counted, not listed: G[i][j]
    is the number of words whose bits i and j are both 1, as Python ints.

    The diagonal counts the words with a 1 at each bit, and row 0 and
    column m - 1 split every count by the first and by the last bit.
    """
    if family.m is None:
        raise ValueError("infinite-length families have no codebook")
    auto = automaton(family)
    n, gram = auto.count(family.m, 0), auto.gram(family.m)
    if family.kind in CLOCKED_KINDS:
        # drop the all-one word, which sets every bit, and the all-zero word
        n, gram = n - 2, gram - 1
    return n, gram.tolist()


def enumerate_codebook(family):
    """The codebook of a finite family; its words are listed when read."""
    if family.kind in INFINITE_KINDS:
        raise ValueError("infinite-length families have no codebook")
    return Codebook(family)


class Codebook:
    """The words of length family.m: N is counted, and the words, bit
    tuples in ascending lexicographic order, are listed on first read
    unless given.  ``whole_family`` is False for a codebook of given
    words, which may be any subset of the family's."""

    def __init__(self, family, words=None):
        self.family = family
        self._words = words
        self.whole_family = words is None

    @property
    def N(self):
        if self._words is not None:
            return len(self._words)
        return group_cardinalities(self.family, self.family.m)[0]

    @property
    def words(self):
        if self._words is None:
            fam, n_words = self.family, self.N
            if n_words > ENUMERATION_LIMIT:
                raise ValueError(
                    f"{fam.kind} x={fam.x} m={fam.m} has {n_words} words, more"
                    f" than the enumeration limit of {ENUMERATION_LIMIT}")
            words = automaton(fam).walk(fam.m)
            if fam.kind in CLOCKED_KINDS:
                # the all-zero and all-one words are always pattern-free,
                # and are the first and last in lexicographic order
                words = words[1:-1]
            self._words = words
        return self._words

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
