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
accepted continuations.  For the self-clocked kinds the automaton's language
already leaves out the two constant words: a fresh start state leads to the
states "all zeros so far" and "all ones so far", which accept nothing, so no
count or listing below subtracts them.  Group cardinalities and
``pair_counts`` (counts of the words with given pairs of bits set, and their
sums along diagonals) read the table, so their cost grows with the length,
not with N.  A ``Codebook`` counts its N and lists its words only when they
are read, in ascending lexicographic order, by joining halves: every head of
m // 2 bits, in order, is followed by each of the ascending accepted tails
read from the automaton state the head ends in, and the tails of each state
are listed once.  A listed word is a ``bytes`` object of one byte, 0 or 1,
per bit: one object per word, not one per bit, which the words' joined
bytes turn into a numpy array and ``bytes.translate`` into text.  Listing
refuses more than ``ENUMERATION_LIMIT`` words; only ``codebook --out`` and
the Monte-Carlo streams of finite families list words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

INFINITE_KINDS = ("ax", "sx")
CLOCKED_KINDS = ("caloco", "cloco")
FINITE_KINDS = ("aloco", "loco") + CLOCKED_KINDS
KINDS = ("iid",) + INFINITE_KINDS + FINITE_KINDS
# Most words a Codebook lists.  `codebook --out` peaks at about 170 MB RSS
# for the N = 922,111 words of aloco x=1 m=24, about 60 bytes a listed word;
# m=26 would take about three times that.
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
    def bridging(self):
        if self.kind in INFINITE_KINDS:
            return None
        return "zeros_or_ones" if self.kind in ("aloco", "caloco") else "z_symbols"


def forbidden_patterns(family):
    """The forbidden windows as bit tuples."""
    x = family.x
    pats = [(1,) + (0,) * j + (1,) for j in range(1, x + 1)]
    if family.kind in ("sx", "loco", "cloco"):  # 1-runs are bounded too
        pats += [(0,) + (1,) * j + (0,) for j in range(1, x + 1)]
    return pats


class Automaton:
    """Aho-Corasick table of a forbidden-pattern set, with completion counts.

    States are the proper prefixes of the patterns, shortest first, then one
    dead state; state 0 is the empty prefix.  A prefix state stands for the
    longest suffix of the bits read that is a proper pattern prefix, and
    ``delta[s][b]`` is the state after reading bit b: dead once a pattern
    has ended, and dead ever after.  Every prefix state accepts.

    A ``clocked`` automaton also refuses the constant strings.  Before the
    dead state it has a fresh ``start`` state and the two ``constant``
    states "all zeros so far" and "all ones so far", which accept nothing.
    Constant state b copies the prefix state one b reaches, except that
    reading b again stays put; so it accepts one continuation fewer, b^r.
    That needs reading b twice to reach the state one b reaches, which
    holds for every pattern set of the package; other sets raise
    ``ValueError``.
    """

    def __init__(self, patterns, clocked=False):
        prefixes = sorted({p[:k] for p in patterns for k in range(len(p))},
                          key=lambda q: (len(q), q))
        index = {q: i for i, q in enumerate(prefixes)}
        patterns = set(patterns)
        n = len(prefixes)
        dead = n + 3 * clocked
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
        self.start, self.constant = 0, ()
        if clocked:
            self.start, self.constant = n, (n + 1, n + 2)
            self.delta[n] = list(self.constant)
            for b, (c, s) in enumerate(zip(self.constant, self.delta[0])):
                if self.delta[s][b] != s:
                    raise ValueError(f"reading {b} twice leaves the state"
                                     f" one {b} reaches")
                self.delta[c] = self.delta[s].copy()
                self.delta[c][b] = c
        # row 0: the prefix states accept, the others do not
        self._counts = [[1] * n + [0] * (dead + 1 - n)]

    def count(self, r, s):
        """Accepted r-bit continuations from state s."""
        if r < 0:
            return 0
        rows = self._counts
        while len(rows) <= r:
            prev = rows[-1]
            rows.append([prev[a] + prev[b] for a, b in self.delta])
        return rows[r][s]

    def walk(self, length):
        """Every accepted ``length``-bit string, as ``bytes`` of one 0/1
        byte per bit, lexicographically ascending: each head of
        ``length // 2`` bits, in order, joined to the ascending tails, read
        from the state it ends in, that end in an accepting state.  Tails
        are listed once per distinct end state."""
        dead = len(self.delta) - 1
        # (bit as a byte, state after) of each live step, the 0-step first
        steps = [[(bytes((b,)), t) for b, t in enumerate(row) if t != dead]
                 for row in self.delta]

        def strings(state, n):
            """The ascending n-bit strings read from state, with end states."""
            level = [(b"", state)]
            for _ in range(n):
                level = [(w + b, t) for w, s in level for b, t in steps[s]]
            return level

        half = length // 2
        heads = strings(self.start, half)
        accepts = self._counts[0]
        tails = {}
        for _, s in heads:
            if s not in tails:
                tails[s] = [w for w, t in strings(s, length - half)
                            if accepts[t]]
        return [h + t for h, s in heads for t in tails[s]]

    def pair_counts(self, length):
        """(ones, with_first, with_last, with_next, lag_sums) of the
        accepted ``length``-bit strings, as Python ints: ones[q] counts the
        strings with bit q set, with_first[q] those with bits 0 and q,
        with_last[q] those with bits q and length - 1, with_next[q] those
        with bits q and q + 1, and lag_sums[d] sums over q those with bits q
        and q + d.  With G[i][j] the strings with bits i and j both 1, these
        are G's diagonal, row 0, column length - 1, first superdiagonal and
        diagonal sums.

        Row 0 of ``rows`` counts the prefixes read from ``start`` by the
        state they end in, and row i + 1 the prefixes whose bit i is 1; each
        bit steps them all forward by one matrix product.  Column j of G is
        those rows read against the accepted completions of a 1 at bit j, so
        a clocked automaton's constant strings are never counted.  Each
        column is added into the sums and dropped, so memory grows like
        length times the states, not length squared.
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
        self.count(length, self.start)
        # row j: the completions of a 1 at bit j, by the state before it
        afters = np.array(self._counts[length - 1::-1], object)[
            :, [row[1] for row in self.delta[:live]]]
        rows = np.zeros((length + 1, live), object)
        rows[0, self.start] = 1
        ones, with_first, with_next = [], [], []
        lag_sums = np.zeros(length, object)
        for j, after in enumerate(afters):
            col = rows[:j + 1] @ after  # G[j][j], then G[i][j] for i < j
            ones.append(col[0])
            with_first.append(col[min(j, 1)])  # G[0][j]
            if j:
                with_next.append(col[j])  # G[j - 1][j]
            lag_sums[1:j + 1] += col[j:0:-1]
            row_j = rows[0] @ one  # the prefixes whose bit j is 1
            rows[:j + 1] = rows[:j + 1] @ both
            rows[j + 1] = row_j
        lag_sums[0] = sum(ones)
        with_last = list(col[1:]) + [col[0]]
        return ones, with_first, with_last, with_next, lag_sums.tolist()


_automaton = lru_cache(maxsize=None)(Automaton)


def automaton(family):
    """The cached constraint automaton of a family's forbidden patterns,
    clocked for the self-clocked kinds: it accepts exactly the words."""
    return _automaton(tuple(forbidden_patterns(family)),
                      family.kind in CLOCKED_KINDS)


def pair_counts(family):
    """(N, ones, with_first, with_last, with_next, lag_sums) of a finite
    family's codebook, counted, not listed, as Python ints:
    ``Automaton.pair_counts`` of the words its automaton accepts, which are
    N."""
    if family.m is None:
        raise ValueError("infinite-length families have no codebook")
    m, auto = family.m, automaton(family)
    return (auto.count(m, auto.start), *auto.pair_counts(m))


def enumerate_codebook(family):
    """The codebook of a finite family; its words are listed when read."""
    if family.kind in INFINITE_KINDS:
        raise ValueError("infinite-length families have no codebook")
    return Codebook(family)


class Codebook:
    """The whole codebook of a finite family: N is counted, and the words,
    ``bytes`` of one 0/1 byte per bit in ascending lexicographic order, are
    listed on first read, both from the family's automaton, which accepts
    exactly the words."""

    def __init__(self, family):
        self.family = family

    @property
    def N(self):
        return group_cardinalities(self.family, self.family.m)[0]

    @cached_property
    def words(self):
        fam, n_words = self.family, self.N
        if n_words > ENUMERATION_LIMIT:
            raise ValueError(
                f"{fam.kind} x={fam.x} m={fam.m} has {n_words} words, more"
                f" than the enumeration limit of {ENUMERATION_LIMIT}")
        return automaton(fam).walk(fam.m)

    @property
    def N1(self):
        """Words starting 00."""
        return sum(1 for w in self.words if w[:2] == b"\0\0")

    @property
    def N2(self):
        """Words starting 11."""
        return sum(1 for w in self.words if w[:2] == b"\1\1")

    @property
    def N3(self):
        """Words starting 10 (equivalently 1 0^{x+1} once length permits)."""
        return sum(1 for w in self.words if w[:2] == b"\1\0")

    def as_bitstrings(self):
        return [w.translate(_BIT_CHARS).decode() for w in self.words]


def group_cardinalities(family, length):
    """(N, N1, N2, N3) at a given word length; 0 below prefix length.

    Read from the automaton's completion counts; nothing is enumerated.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    # rejects the kinds without codewords, as enumeration would
    ConstraintFamily(family.kind, family.x, length)
    auto = automaton(family)
    d, s = auto.delta, auto.start
    return (auto.count(length, s), *(auto.count(length - 2, d[d[s][a]][b])
                                     for a, b in ((0, 0), (1, 1), (1, 0))))


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
