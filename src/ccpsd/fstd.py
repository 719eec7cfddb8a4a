"""Finite-state transition diagrams (per bit) and their one-step reductions.

Two constructions are provided:

* ``build_infinite_fstd`` -- the stationary diagram of an infinite-length
  constrained sequence, over histories of the last x+1 bits, with 1/2-1/2
  branching wherever two continuations are allowed.

* ``build_grid_fstd`` -- the positional grid for a stream of uniformly drawn
  fixed-length codewords with bridging: one column per position of the
  codeword-plus-bridge period, states keyed by (column, last x+1 bits), with
  exact rational edge probabilities derived from codeword statistics.

``reduce_to_ostd`` aggregates all label-free paths between labeled states
(states whose most recent bit is a 1) into run-length distributions; 0-cycles
that never touch a labeled state become geometric run families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .codebook import ConstraintFamily, contains_forbidden, forbidden_patterns
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
    if family.kind not in ("ax", "sx"):
        raise ValueError("infinite FSTDs exist only for the ax/sx families")
    x = family.x
    patterns = forbidden_patterns(family)
    width = x + 1

    histories = [
        h
        for h in _all_bits(width)
        if not contains_forbidden(h, patterns)
    ]
    # prune histories that can never occur in a bi-infinite valid stream
    histories = [h for h in histories if _extendable(h, patterns)]

    index = {h: i for i, h in enumerate(histories)}
    edges = []
    for h in histories:
        allowed = [b for b in (0, 1) if not contains_forbidden(h + (b,), patterns)
                   and (h + (b,))[1:] in index]
        p = Fraction(1, len(allowed))
        for b in allowed:
            edges.append((index[h], index[(h + (b,))[1:]], b, p))

    states = []
    for h in histories:
        labeled = h[-1] == 1
        cat = (0, _trailing_run(h, 1)) if labeled else ("u", h)
        states.append(State("stationary", h, labeled, cat))
    fstd = Fstd(family=family, states=states, edges=edges)
    fstd.check()
    return fstd


def _all_bits(n):
    return [tuple((v >> (n - 1 - i)) & 1 for i in range(n)) for v in range(2 ** n)]


def _extendable(h, patterns):
    # must admit at least one successor and one predecessor window
    succ = any(not contains_forbidden(h + (b,), patterns) for b in (0, 1))
    pred = any(not contains_forbidden((b,) + h, patterns) for b in (0, 1))
    return succ and pred


# ---------------------------------------------------------------------------
# Positional grid diagrams
# ---------------------------------------------------------------------------


def stream_signal_kind(family):
    """Which bit process the grid describes for this family."""
    return "flipped_a" if family.kind in ("loco", "cloco") else "bits"


def _stream_words(codebook, signal):
    if signal == "flipped_a":
        return [tuple(1 - b for b in w) for w in codebook.words]
    return [tuple(w) for w in codebook.words]


def _bridge_bits(family, signal, last_bit, first_bit):
    """Stream-domain bridge bits between two consecutive stream words."""
    x = family.x
    if signal == "flipped_a":
        # z symbols carry no pulse; on the flipped indicator signal they read 1
        return (1,) * x
    if last_bit == 1 and first_bit == 1:
        return (1,) * x
    return (0,) * x


def window_distribution(codebook):
    """Exact distribution of length-(x+2) windows ending at each stream phase.

    Phase 0 is the first codeword position; phases m..m+x-1 are bridge
    positions.  Returns a list of dicts {window tuple: Fraction}.
    """
    family = codebook.family
    signal = stream_signal_kind(family)
    m, x = family.m, family.x
    period = m + x
    words = _stream_words(codebook, signal)
    n = len(words)
    if n == 0:
        raise ValueError("empty codebook")
    n_last = [sum(1 for w in words if w[-1] == b) for b in (0, 1)]
    n_first = [sum(1 for w in words if w[0] == b) for b in (0, 1)]

    width = x + 2
    dist = [dict() for _ in range(period)]
    denom = n ** 3
    for l1 in (0, 1):
        if n_last[l1] == 0:
            continue
        for w2 in words:
            seg_mid = (l1,) + _bridge_bits(family, signal, l1, w2[0]) + w2
            for f3 in (0, 1):
                if n_first[f3] == 0:
                    continue
                seg = seg_mid + _bridge_bits(family, signal, w2[-1], f3)
                weight = Fraction(n_last[l1] * n_first[f3], denom)
                # seg[0] sits at stream position m-1
                for phase in range(period):
                    end = (m + x + phase) - (m - 1)  # index within seg
                    win = seg[end - width + 1 : end + 1]
                    dist[phase][win] = dist[phase].get(win, Fraction(0)) + weight
    return dist


def _grid_category(family, signal, col, hist, labeled):
    m, x = family.m, family.x
    if not labeled:
        return ("u", col)
    if signal == "bits":
        return (0, col)
    if col >= m:
        return (2, col)
    if all(b == 1 for b in hist):
        return (0, col)
    r = _trailing_run(hist, 1)
    freedom = col + (x + 1 - r)
    return (1, col, min(freedom, m))


def build_grid_fstd(codebook, merge=True):
    """Positional-grid FSTD for a finite family under uniform codeword usage."""
    family = codebook.family
    signal = stream_signal_kind(family)
    period = family.m + family.x
    dist = window_distribution(codebook)

    states = []
    index = {}
    for col in range(period):
        hists = set()
        for win in dist[col]:
            hists.add(win[1:])
        for h in sorted(hists):
            labeled = h[-1] == 1
            cat = _grid_category(family, signal, col, h, labeled)
            index[(col, h)] = len(states)
            states.append(State(col, h, labeled, cat))

    edges = []
    for col in range(period):
        nxt = (col + 1) % period
        for (c, h), i in list(index.items()):
            if c != col:
                continue
            denom = sum(
                (dist[nxt].get(h + (b,), Fraction(0)) for b in (0, 1)), Fraction(0)
            )
            if denom == 0:
                continue
            for b in (0, 1):
                pr = dist[nxt].get(h + (b,), Fraction(0))
                if pr == 0:
                    continue
                edges.append((i, index[(nxt, (h + (b,))[1:])], b, pr / denom))

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
                    row = [row[j] + w * zt[j] for j in range(nl)]
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
    if fn.den == (Fraction(1),):
        finite = [(t, p) for t, p in enumerate(fn.num) if p != 0]
        _check_runs(finite)
        return RunSet(finite=finite)
    support = [i for i, c in enumerate(fn.den) if c != 0]
    if len(support) != 2 or support[0] != 0:
        raise NotImplementedError(
            "run-length structure beyond a single geometric family"
        )
    period = support[1]
    a0 = fn.den[0]  # denominator is monic: a0 + D^period
    ratio = -1 / a0
    if not 0 < ratio < 1:
        raise NotImplementedError("non-probabilistic geometric family")

    # Power-series coefficients s_1..s_T; beyond T the recurrence gives
    # s_t = ratio * s_{t-period}, so each residue class tails off
    # geometrically from its last explicit coefficient.
    top = len(fn.num) - 1
    series = [Fraction(0)] * (top + 1)
    for t in range(top + 1):
        acc = fn.num[t]
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
