"""Finite-state transition diagrams (per bit) and their one-step reductions.

Two constructions are provided:

* ``build_infinite_fstd`` -- the stationary diagram of an infinite-length
  constrained sequence, over the histories of the last x+1 bits that the
  constraint automaton allows, with 1/2-1/2 branching wherever two
  continuations are allowed.

* ``build_grid_fstd`` -- the positional grid for a stream of uniformly drawn
  fixed-length codewords with bridging: one column per position of the
  codeword-plus-bridge period, states keyed by (column, last x+1 bits).  Each
  edge probability is a ratio of completion counts of the automaton, which
  for a self-clocked family already refuses the constant words.  A word in
  one of its constant states keeps its whole history, since it lacks the one
  constant completion; this makes its grid exact.

``reduce_to_ostd`` aggregates all label-free paths between labeled states
(states whose most recent bit is a 1): each one-step edge holds the path
generating function sum_t P(run of t steps) D^t, exact in D, with the
label-free states eliminated one at a time by ``ratfn.eliminate``
(``path_functions``, which ``clocked`` reads its run lists from too).

Edge probabilities are ``Fraction``s, but ``Fstd.check``, the merge and a
codeword grid's visit masses read them as (numerator, denominator) ints
and make no ``Fraction`` until a result is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .codebook import INFINITE_KINDS, ConstraintFamily, automaton
from .ratfn import RationalFn, eliminate, over_lcm
from .transfer import MATRIX_SLOT_LIMIT


@dataclass(frozen=True)
class State:
    position: object  # column index, or "stationary" for infinite families
    history: tuple  # most recent bits, oldest first
    labeled: bool
    category: tuple  # merge key; role 0-2 labeled, 3 unlabeled

    @property
    def sort_key(self):
        """The canonical state order: a category fixes the column."""
        return self.category, self.history

    def history_str(self):
        return "".join(map(str, self.history))


@dataclass
class Fstd:
    family: ConstraintFamily
    states: list  # of State
    edges: list  # of (from_idx, to_idx, symbol, Fraction probability)

    def labeled_indices(self):
        idx = [i for i, s in enumerate(self.states) if s.labeled]
        return sorted(idx, key=lambda i: self.states[i].sort_key)

    def check(self):
        """Structural invariants: per-vertex symbol consistency, edge
        probabilities in (0, 1], stochasticity of every state, sinks
        included."""
        incoming = {}
        outgoing = {f: [] for f in range(len(self.states))}
        for f, t, sym, p in self.edges:
            if not 0 < p.numerator <= p.denominator:
                raise ValueError(f"edge {f} -> {t} probability {p} "
                                 "outside (0, 1]")
            incoming.setdefault(t, set()).add(sym)
            outgoing.setdefault(f, []).append((p.numerator, p.denominator))
        for t, syms in incoming.items():
            if len(syms) != 1:
                raise ValueError(f"state {t} has mixed incoming symbols")
        for f, parts in outgoing.items():
            nums, scale = over_lcm(parts)
            if sum(nums) != scale:
                total = Fraction(sum(nums), scale)
                raise ValueError(f"state {f} outgoing probability {total} != 1")
        return True


@dataclass
class Ostd:
    family: ConstraintFamily
    state_keys: list  # canonical (category, position, history) per state
    edges: dict  # (i, j) -> nonzero path generating function (RationalFn)
    visits: tuple | None = None  # a grid's, as ``TransferMatrix.visits``

    @property
    def n(self):
        return len(self.state_keys)


# ---------------------------------------------------------------------------
# Infinite-length diagrams
# ---------------------------------------------------------------------------


def _trailing_run(history, bit):
    r = 0
    for b in reversed(history):
        if b != bit:
            break
        r += 1
    return r


def build_infinite_fstd(family):
    if family.kind not in INFINITE_KINDS:
        raise ValueError("infinite FSTDs exist only for the ax/sx families")
    # ax has (x+2)(x+3)/2 + 1 pattern-free (x+2)-bit windows and sx 2x + 4,
    # listed as tuples of x + 2 bits unless they exceed the slot limit
    x = family.x
    count = (x + 2) * (x + 3) // 2 + 1 if family.kind == "ax" else 2 * x + 4
    if count * (x + 2) > MATRIX_SLOT_LIMIT:
        raise ValueError(f"{family.kind} x={x} would list {count} windows of"
                         f" {x + 2} bits, more than the limit of"
                         f" {MATRIX_SLOT_LIMIT} slots")
    # as bit tuples, so the histories and the state payloads are tuples
    windows = set(map(tuple, automaton(family).walk(x + 2)))
    # histories of the last x+1 bits that occur in a bi-infinite valid
    # stream: each ends one pattern-free window and starts another
    histories = sorted({w[1:] for w in windows} & {w[:-1] for w in windows})
    index = {h: i for i, h in enumerate(histories)}
    edges = []
    for h in histories:
        allowed = [b for b in (0, 1) if h + (b,) in windows
                   and h[1:] + (b,) in index]
        p = Fraction(1, len(allowed))
        for b in allowed:
            edges.append((index[h], index[h[1:] + (b,)], b, p))

    states = []
    for h in histories:
        labeled = h[-1] == 1
        cat = (0, _trailing_run(h, 1)) if labeled else (3, h)
        states.append(State("stationary", h, labeled, cat))
    fstd = Fstd(family=family, states=states, edges=edges)
    fstd.check()
    return fstd


# ---------------------------------------------------------------------------
# Positional grid diagrams
# ---------------------------------------------------------------------------


def _grid_category(family, col, hist):
    m, x = family.m, family.x
    if hist[-1] == 0:
        return (3, col)
    if family.bridging != "z_symbols":
        return (0, col)
    if col >= m:
        return (2, col)
    if all(b == 1 for b in hist):
        return (0, col)
    r = _trailing_run(hist, 1)
    freedom = col + (x + 1 - r)
    return (1, col, min(freedom, m))


def build_grid_fstd(codebook, merge=True):
    """Positional-grid FSTD for a finite family under uniform codeword usage.

    Only ``codebook.family`` is read: every edge probability is a ratio of
    completion counts of the family's automaton, read from the state each
    node was first reached in.  Only the keep-the-whole-history rule reads
    the automaton's ``constant`` states.
    """
    family = codebook.family
    # With z-symbol bridges the grid tracks the flipped indicator, in which
    # word zeros and the bridges read 1; otherwise it tracks the bits.
    flipped = family.bridging == "z_symbols"
    m, x = family.m, family.x
    period = m + x
    auto = automaton(family)

    # Stream words are uniform over the codebook.  The loco patterns are
    # symmetric, so the flipped words obey the same automaton.
    first = auto.delta[auto.start]
    n_first = [auto.count(m - 1, s) for s in first]
    draw_first = [(b, Fraction(n_first[b], sum(n_first))) for b in (0, 1)]

    def successors(col, hist, s):
        """(bit, probability, automaton state) of each edge."""
        if col < m - 1:  # word bits
            total = auto.count(m - 1 - col, s)
            return [(b, Fraction(auto.count(m - 2 - col, t), total), t)
                    for b, t in enumerate(auto.delta[s])]
        if col == period - 1:  # the first bit of the next word
            if not flipped and hist[-1] == 1:
                pairs = [(1, Fraction(1))]
            elif not flipped and hist[0] == 1:
                pairs = [(0, Fraction(1))]
            else:
                pairs = draw_first
            return [(b, p, first[b]) for b, p in pairs]
        # Bridge bits repeat the first one.  z symbols read 1; ones bridge a
        # 1 to a word starting with 1, and zeros bridge the rest.
        if col >= m or (not flipped and hist[-1] == 0):
            pairs = [(hist[-1], Fraction(1))]
        elif flipped:
            pairs = [(1, Fraction(1))]
        else:
            pairs = draw_first
        return [(b, p, None) for b, p in pairs]

    # A state is a column and the stream bits it remembers: the last x+1,
    # or the whole word while the automaton is in a constant state.  The
    # walk starts after a word ending in 0 and its bridge, which every
    # stream visits.
    start = (period - 1, (0,) + (int(flipped),) * x)
    info = {start: None}  # the automaton state
    out = {}
    todo = [start]
    while todo:
        col, hist = node = todo.pop()
        out[node] = []
        for b, p, s in successors(col, hist, info[node]):
            if p:
                nxt = (col + 1) % period
                keep = max(x + 1, nxt + 1 if s in auto.constant else 0)
                target = (nxt, (hist + (b,))[-keep:])
                out[node].append((b, p, target))
                if target not in info:
                    info[target] = s
                    todo.append(target)

    nodes = sorted(out)
    index = {node: i for i, node in enumerate(nodes)}
    states = [State(col, hist, hist[-1] == 1,
                    _grid_category(family, col, hist))
              for col, hist in nodes]
    edges = [(index[node], index[target], b, p)
             for node in nodes for b, p, target in out[node]]
    fstd = Fstd(family=family, states=states, edges=edges)
    fstd.check()  # merging only sums the edges it joins
    if merge:
        fstd = merge_equivalent_states(fstd)
    return fstd


def merge_equivalent_states(fstd):
    """Quotient by the coarsest bisimulation refining the category partition.

    States in the same block share column and role (their category), and have
    identical aggregated (symbol, destination-block, probability) signatures,
    the probabilities as (numerator, denominator) ints.  Edges of one state
    are summed only where they share a symbol, which no grid state's do.
    """
    n = len(fstd.states)
    block = [s.category for s in fstd.states]
    out = [[] for _ in range(n)]
    for f, t, sym, p in fstd.edges:
        out[f].append((t, sym, p))
    # each state's edges as (target, symbol, numerator, denominator), or
    # None where two of them share a symbol and must be summed
    parts = [None if len({sym for _, sym, _ in edges}) < len(edges)
             else [(t, sym, p.numerator, p.denominator) for t, sym, p in edges]
             for edges in out]

    count = len(set(block))
    while True:
        seen = {}
        newblock = []
        for i in range(n):
            if parts[i] is None:
                agg = _summed(out[i], block)
                sig = tuple(sorted((sym, b, p.numerator, p.denominator)
                                   for (b, sym), p in agg.items()))
            else:
                sig = tuple(sorted([(sym, block[t], v, d)
                                    for t, sym, v, d in parts[i]]))
            newblock.append(seen.setdefault((block[i], sig), len(seen)))
        # signatures include the old block, so blocks can only split
        if len(seen) == count:
            break
        block, count = newblock, len(seen)

    # Each block is represented by its first state in the canonical order,
    # and the blocks are numbered in the order of their representatives.
    reps = {}
    for i in sorted(range(n), key=lambda i: fstd.states[i].sort_key):
        reps.setdefault(block[i], i)
    rank = {b: k for k, b in enumerate(reps)}
    merged = [rank[b] for b in block]
    edges = [(k, t, sym, p) for k, r in enumerate(reps.values())
             for (t, sym), p in _summed(out[r], merged).items()]
    states = [fstd.states[r] for r in reps.values()]  # State is frozen
    return Fstd(family=fstd.family, states=states, edges=edges)


def _summed(edges, block):
    """{(block of target, symbol): probability} of one state's edges, those
    sharing both summed, in the order of their first edges."""
    agg = {}
    for t, sym, p in edges:
        key = block[t], sym
        agg[key] = agg[key] + p if key in agg else p
    return agg


# ---------------------------------------------------------------------------
# Reduction to one-step diagrams
# ---------------------------------------------------------------------------


def path_functions(transitions, labeled):
    """{i: {j: RationalFn}} over labeled states: the per-bit edges (from,
    to, p) as p D, the unlabeled states eliminated in index order by
    ``ratfn.eliminate``: D^t in (i, j) has coefficient P(run of t steps)."""
    out = {i: {} for i in range(len(labeled))}
    for f, t, p in transitions:
        w = RationalFn.monomial(p, 1)
        out[f][t] = out[f][t] + w if t in out[f] else w
    eliminate(out, [u for u, flag in enumerate(labeled) if not flag])
    return out


def _grid_visits(fstd, labeled):
    """(masses, P): the probability that a period of P symbols of a
    codeword grid passes through each ``labeled`` state, pushed forward
    exactly from a state of the last column for two periods and kept over
    a third.  Each word's first bit is drawn in the bridge before it from
    one law whatever came before, so the second word is uniform, and no
    state of the third period remembers an older bit.  The masses are ints
    over one scale, which each step multiplies by the lcm of the
    denominators of the states with mass and reduces by the common gcd."""
    period = fstd.family.m + fstd.family.x
    out = [[] for _ in fstd.states]
    for f, t, _, p in fstd.edges:
        out[f].append((t, p))
    # each state's edges as ints over the lcm of their denominators
    steps = []
    for edges in out:
        nums, den = over_lcm((p.numerator, p.denominator) for _, p in edges)
        steps.append((den, [(t, v) for (t, _), v in zip(edges, nums)]))
    mass = {next(i for i, s in enumerate(fstd.states)
                 if s.position == period - 1): 1}
    scale = 1
    kept = {}
    for step in range(3 * period):
        common = lcm(*(steps[i][0] for i in mass))
        step_mass = {}
        for i, w in mass.items():
            den, edges = steps[i]
            w *= common // den
            for t, v in edges:
                step_mass[t] = step_mass.get(t, 0) + w * v
        scale *= common
        g = gcd(scale, *step_mass.values())
        if g > 1:
            scale //= g
            step_mass = {t: w // g for t, w in step_mass.items()}
        mass = step_mass
        if step >= 2 * period:
            kept.update((t, (w, scale)) for t, w in mass.items())
    return tuple(Fraction(*kept[i]) if i in kept else Fraction(0)
                 for i in labeled), period


def reduce_to_ostd(fstd):
    """Aggregate label-free paths between labeled states into their path
    generating functions (``path_functions``); a codeword grid's labeled
    states also get their visits (``_grid_visits``)."""
    labeled = fstd.labeled_indices()
    if not labeled:
        raise ValueError("no labeled states: degenerate all-zero process")
    out = path_functions([(f, t, p) for f, t, _, p in fstd.edges],
                         [state.labeled for state in fstd.states])
    pos = {i: k for k, i in enumerate(labeled)}
    edges = {(pos[i], pos[j]): fn for i in labeled for j, fn in out[i].items()}
    keys = [(s.category, s.position, s.history)
            for s in (fstd.states[i] for i in labeled)]
    visits = (None if fstd.family.kind in INFINITE_KINDS
              else _grid_visits(fstd, labeled))
    return Ostd(fstd.family, keys, edges, visits)
