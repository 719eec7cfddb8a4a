"""Finite-state transition diagrams (per bit) and their one-step reductions.

Two constructions are provided:

* ``build_infinite_fstd`` -- the stationary diagram of an infinite-length
  constrained sequence, over the histories of the last x+1 bits that the
  constraint automaton allows, with 1/2-1/2 branching wherever two
  continuations are allowed.

* ``build_grid_fstd`` -- the positional grid for a stream of uniformly drawn
  fixed-length codewords with bridging: one column per position of the
  codeword-plus-bridge period, states keyed by (column, last x+1 bits).  Each
  edge probability is a ratio of completion counts of the automaton.  A
  self-clocked word that is constant so far keeps its whole history, since
  it lacks the one constant completion; this makes its grid exact.

``reduce_to_ostd`` aggregates all label-free paths between labeled states
(states whose most recent bit is a 1) into run-length distributions; 0-cycles
that never touch a labeled state become geometric run families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .codebook import (CLOCKED_KINDS, INFINITE_KINDS, ConstraintFamily,
                       automaton)
from .ratfn import RationalFn, ZERO, solve


def _cat_key(cat):
    """Total order over category tuples mixing ints and strings."""
    return tuple((1, e) if isinstance(e, str) else (0, e) for e in cat)


@dataclass(frozen=True)
class State:
    position: object  # column index, or "stationary" for infinite families
    history: tuple  # most recent bits, oldest first
    labeled: bool
    category: tuple  # canonical sort/merge key

    def history_str(self):
        return "".join(map(str, self.history))


@dataclass
class Fstd:
    family: ConstraintFamily
    states: list  # of State
    edges: list  # of (from_idx, to_idx, symbol, Fraction probability)

    def labeled_indices(self):
        idx = [i for i, s in enumerate(self.states) if s.labeled]
        idx.sort(key=lambda i: (_cat_key(self.states[i].category),
                                str(self.states[i].position),
                                self.states[i].history))
        return idx

    def check(self):
        """Structural invariants: per-vertex symbol consistency, stochasticity."""
        incoming = {}
        outgoing = {}
        for f, t, sym, p in self.edges:
            incoming.setdefault(t, set()).add(sym)
            outgoing[f] = outgoing.get(f, Fraction(0)) + p
        for t, syms in incoming.items():
            if len(syms) != 1:
                raise ValueError(f"state {t} has mixed incoming symbols")
        for f, total in outgoing.items():
            if total != 1:
                raise ValueError(f"state {f} outgoing probability {total} != 1")
        return True


@dataclass
class RunSet:
    """Run-length distribution on one OSTD edge."""

    finite: list = field(default_factory=list)  # (t, probability)
    geoms: list = field(default_factory=list)  # (c0, b, ratio, period)

    def total_probability(self):
        tot = sum((p for _, p in self.finite), Fraction(0))
        for c0, _, ratio, _ in self.geoms:
            tot += c0 / (1 - ratio)
        return tot

    def transfer_fn(self):
        fn = ZERO
        for t, p in self.finite:
            fn = fn + RationalFn.monomial(p, t)
        for c0, b, ratio, period in self.geoms:
            fn = fn + RationalFn.geometric(c0, b, ratio, period)
        return fn


@dataclass
class Ostd:
    family: ConstraintFamily
    state_keys: list  # canonical (category, position, history) per state
    edges: dict  # (i, j) -> RunSet

    @property
    def n(self):
        return len(self.state_keys)

    def check_conservation(self):
        for i in range(self.n):
            tot = sum(
                (rs.total_probability() for (a, _), rs in self.edges.items() if a == i),
                Fraction(0),
            )
            if tot != 1:
                raise ValueError(f"OSTD state {i} total probability {tot} != 1")
        return True


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
    windows = set(automaton(family).walk(family.x + 2))
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
        cat = (0, _trailing_run(h, 1)) if labeled else ("u", h)
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
        return ("u", col)
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
    completion counts of the constraint automaton.
    """
    family = codebook.family
    # With z-symbol bridges the grid tracks the flipped indicator, in which
    # word zeros and the bridges read 1; otherwise it tracks the bits.
    flipped = family.bridging == "z_symbols"
    m, x = family.m, family.x
    period = m + x
    auto = automaton(family)
    clocked = family.kind in CLOCKED_KINDS

    def completions(r, s, const):
        # a clocked word that is constant so far loses its constant completion
        return auto.count(r, s) - (clocked and const)

    # Stream words are uniform over the codebook.  The loco patterns are
    # symmetric, so the flipped words obey the same automaton.
    first = auto.delta[0]
    n_first = [completions(m - 1, s, True) for s in first]
    draw_first = [(b, Fraction(n_first[b], sum(n_first))) for b in (0, 1)]

    def successors(col, hist, s, const):
        """(bit, probability, automaton state, constant flag) of each edge."""
        if col < m - 1:  # word bits
            total = completions(m - 1 - col, s, const)
            steps = []
            for b, t in enumerate(auto.delta[s]):
                c = const and b == hist[-1]
                steps.append((b, Fraction(completions(m - 2 - col, t, c), total),
                              t, c))
            return steps
        if col == period - 1:  # the first bit of the next word
            if not flipped and hist[-1] == 1:
                pairs = [(1, Fraction(1))]
            elif not flipped and hist[0] == 1:
                pairs = [(0, Fraction(1))]
            else:
                pairs = draw_first
            return [(b, p, first[b], True) for b, p in pairs]
        # Bridge bits repeat the first one.  z symbols read 1; ones bridge a
        # 1 to a word starting with 1, and zeros bridge the rest.
        if col >= m or (not flipped and hist[-1] == 0):
            pairs = [(hist[-1], Fraction(1))]
        elif flipped:
            pairs = [(1, Fraction(1))]
        else:
            pairs = draw_first
        return [(b, p, None, False) for b, p in pairs]

    # A state is a column and the stream bits it remembers: the last x+1,
    # or the whole word while a clocked word is constant.  The walk starts
    # after a word ending in 0 and its bridge, which every stream visits.
    start = (period - 1, (0,) + (int(flipped),) * x)
    info = {start: (None, False)}  # automaton state and constant flag
    out = {}
    todo = [start]
    while todo:
        col, hist = node = todo.pop()
        out[node] = []
        for b, p, s, const in successors(col, hist, *info[node]):
            if p:
                nxt = (col + 1) % period
                keep = max(x + 1, nxt + 1 if clocked and const else 0)
                target = (nxt, (hist + (b,))[-keep:])
                out[node].append((b, p, target))
                if target not in info:
                    info[target] = (s, const)
                    todo.append(target)

    nodes = sorted(out)
    index = {node: i for i, node in enumerate(nodes)}
    states = [State(col, hist, hist[-1] == 1,
                    _grid_category(family, col, hist))
              for col, hist in nodes]
    edges = [(index[node], index[target], b, p)
             for node in nodes for b, p, target in out[node]]
    fstd = Fstd(family=family, states=states, edges=edges)
    fstd.check()
    if merge:
        fstd = merge_equivalent_states(fstd)
        fstd.check()
    return fstd


def merge_equivalent_states(fstd):
    """Quotient by the coarsest bisimulation refining the category partition.

    States in the same block share column and role (their category), and have
    identical aggregated (symbol, probability, destination-block) signatures.
    """
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
        # signatures include the old block, so blocks can only split
        if len(seen) == count:
            break
        block, count = newblock, len(seen)

    # build quotient
    reps = {}
    for i in range(n):
        b = block[i]
        if b not in reps or (
            str(fstd.states[i].position),
            fstd.states[i].history,
        ) < (str(fstd.states[reps[b]].position), fstd.states[reps[b]].history):
            reps[b] = i
    blocks = sorted(reps, key=lambda b: (_cat_key(fstd.states[reps[b]].category),
                                         str(fstd.states[reps[b]].position),
                                         fstd.states[reps[b]].history))
    remap = {b: k for k, b in enumerate(blocks)}

    states = [fstd.states[reps[b]] for b in blocks]  # State is frozen

    new_edges = {}
    for b in blocks:
        r = reps[b]
        agg = {}
        for t, sym, p in out[r]:
            key = (remap[block[t]], sym)
            agg[key] = agg.get(key, Fraction(0)) + p
        for (t, sym), p in agg.items():
            new_edges[(remap[b], t, sym)] = p
    edges = [(f, t, sym, p) for (f, t, sym), p in new_edges.items()]
    return Fstd(family=fstd.family, states=states, edges=edges)


# ---------------------------------------------------------------------------
# Reduction to one-step diagrams
# ---------------------------------------------------------------------------


def reduce_to_ostd(fstd):
    """Aggregate label-free paths between labeled states into run lengths."""
    labeled = fstd.labeled_indices()
    if not labeled:
        raise ValueError("no labeled states: degenerate all-zero process")
    lab_pos = {i: k for k, i in enumerate(labeled)}
    nl = len(labeled)
    unlabeled = [i for i in range(len(fstd.states)) if i not in lab_pos]

    out = {i: [] for i in range(len(fstd.states))}
    for f, t, _, p in fstd.edges:
        out[f].append((t, RationalFn.monomial(p, 1)))

    # z[u][j] = generating function of first passage u -> labeled j through
    # unlabeled states only (u itself unlabeled)
    z = {}
    for scc in _sccs(unlabeled, out, set(unlabeled)):
        rhs = {}
        for u in scc:
            row = [ZERO] * nl
            for t, w in out[u]:
                if t in lab_pos:
                    row[lab_pos[t]] = row[lab_pos[t]] + w
                elif t not in scc:
                    zt = z[t]
                    row = [row[j] + w * zt[j] if zt[j] else row[j]
                           for j in range(nl)]
            rhs[u] = row
        if len(scc) == 1 and not any(t == scc[0] for t, _ in out[scc[0]]):
            z[scc[0]] = rhs[scc[0]]
        else:
            z.update(_solve_scc(scc, out, rhs))

    fns = [[ZERO] * nl for _ in range(nl)]
    for k, i in enumerate(labeled):
        for t, w in out[i]:
            if t in lab_pos:
                fns[k][lab_pos[t]] = fns[k][lab_pos[t]] + w
            else:
                zt = z[t]
                for j in range(nl):
                    if zt[j]:  # w * 0 would build a zero to add
                        fns[k][j] = fns[k][j] + w * zt[j]

    edges = {}
    for a in range(nl):
        for b in range(nl):
            if fns[a][b].is_zero():
                continue
            edges[(a, b)] = _decompose_runs(fns[a][b])

    keys = [
        (fstd.states[i].category, fstd.states[i].position, fstd.states[i].history)
        for i in labeled
    ]
    ostd = Ostd(family=fstd.family, state_keys=keys, edges=edges)
    ostd.check_conservation()
    return ostd


def _sccs(nodes, out, universe):
    """Tarjan SCCs of the subgraph on `universe`, emitted successors-first."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    result = []
    counter = [0]

    def strongconnect(v):
        work = [(v, iter([t for t, _ in out[v] if t in universe]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        onstack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for t in it:
                if t not in index:
                    index[t] = low[t] = counter[0]
                    counter[0] += 1
                    stack.append(t)
                    onstack.add(t)
                    work.append((t, iter([s for s, _ in out[t] if s in universe])))
                    advanced = True
                    break
                if t in onstack:
                    low[node] = min(low[node], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                result.append(comp)

    for v in nodes:
        if v not in index:
            strongconnect(v)
    return result


def _solve_scc(scc, out, rhs):
    """Solve (I - Q) z = rhs restricted to one strongly connected component."""
    pos = {u: i for i, u in enumerate(scc)}
    k = len(scc)
    A = [[ZERO] * k for _ in range(k)]
    for i, u in enumerate(scc):
        A[i][i] = A[i][i] + 1
        for t, w in out[u]:
            if t in pos:
                A[i][pos[t]] = A[i][pos[t]] - w
    return dict(zip(scc, solve(A, [rhs[u] for u in scc])))


def _decompose_runs(fn):
    """Split a path generating function into finite runs + geometric families."""
    num, den = fn.num, fn.den  # built on each access
    if den == (Fraction(1),):
        finite = [(t, p) for t, p in enumerate(num) if p != 0]
        _check_runs(finite)
        return RunSet(finite=finite)
    support = [i for i, c in enumerate(den) if c != 0]
    if len(support) != 2 or support[0] != 0:
        raise NotImplementedError(
            "run-length structure beyond a single geometric family"
        )
    period = support[1]
    a0 = den[0]  # denominator is monic: a0 + D^period
    ratio = -1 / a0
    if not 0 < ratio < 1:
        raise NotImplementedError("non-probabilistic geometric family")

    # Power-series coefficients s_1..s_T; beyond T the recurrence gives
    # s_t = ratio * s_{t-period}, so each residue class tails off
    # geometrically from its last explicit coefficient.
    top = len(num) - 1
    series = [Fraction(0)] * (top + 1)
    for t in range(top + 1):
        acc = num[t]
        if t >= period:
            acc -= series[t - period]
        series[t] = acc / a0
    if top >= 0 and series[0] != 0:
        raise ValueError("length-0 run in path generating function")

    geom_starts = set()
    geoms = []
    for b in range(max(1, top - period + 1), top + 1):
        if series[b] != 0:
            geom_starts.add(b)
            geoms.append((series[b], b, ratio, period))
    finite = [
        (t, series[t])
        for t in range(1, top + 1)
        if series[t] != 0 and t not in geom_starts
    ]
    _check_runs(finite)
    for c0, b, _, _ in geoms:
        if c0 <= 0 or b < 1:
            raise ValueError(f"invalid geometric run family (b={b}, c0={c0})")
    return RunSet(finite=finite, geoms=geoms)


def _check_runs(finite):
    for t, p in finite:
        if t < 1 or p < 0:
            raise ValueError(f"invalid run (t={t}, p={p})")
