"""One-step reduction for self-clocked codes by bounded probability BFS.

Self-clocked codebooks exclude the all-zero and all-one words, so every
stream shows a transition at least once every k_eff = 2(m-1) + x symbols.
That bound lets the label-to-label run-length distributions be found by
propagating probability mass through the per-bit diagram for at most
k_eff + 1 steps, with mass absorbed whenever it reaches a labeled state.
The masses are exact: ints over L^step, with L the lcm of the transition
probabilities' denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codebook import CLOCKED_KINDS
from .ratfn import over_lcm


def effective_run_bound(m, x):
    """Longest possible gap between labeled symbols in a clocked stream."""
    return 2 * (m - 1) + x


@dataclass
class ClockedInputs:
    n: int
    transitions: list  # (from_idx, to_idx, Fraction) forward edges
    labeled: list  # bool per state
    k_eff: int


def clocked_inputs_from_fstd(fstd):
    fam = fstd.family
    if fam.kind not in CLOCKED_KINDS:
        raise ValueError("BFS reduction applies to self-clocked families")
    transitions = [(f, t, p) for (f, t, _, p) in fstd.edges]
    labeled = [s.labeled for s in fstd.states]
    return ClockedInputs(
        n=len(fstd.states),
        transitions=transitions,
        labeled=labeled,
        k_eff=effective_run_bound(fam.m, fam.x),
    )


def bfs_ostd(inputs):
    """Run-length distributions between labeled states by bounded BFS.

    Returns {(src_label_idx, dst_label_idx): [(steps, probability), ...]}
    over labeled states in state order.  Raises if any probability mass
    survives past k_eff + 1 steps.

    Each transition probability is an int weight over L, the lcm of their
    denominators, so the mass after s steps is a vector of ints over L^s; a
    ``Fraction`` is made only for each absorbed (source, target, step) run.
    """
    lab = [i for i, flag in enumerate(inputs.labeled) if flag]
    lab_pos = {i: k for k, i in enumerate(lab)}
    weights, scale = over_lcm((p.numerator, p.denominator)
                              for _, _, p in inputs.transitions)
    out = {}  # build_grid_fstd checks every probability is in (0, 1]
    for (f, t, _), w in zip(inputs.transitions, weights):
        out.setdefault(f, []).append((t, w))
    # mass[i][j]: L^step times the probability of being at state i, started
    # from labeled j, having not revisited any labeled state yet
    mass = {i: {j: 1} for j, i in enumerate(lab)}

    runs = {}  # (src, dst) -> [(steps, int mass over L^steps)]
    steps = inputs.k_eff + 1
    power = [1]  # power[t] = L^t
    for step in range(1, steps + 1):
        power.append(power[-1] * scale)
        nxt = {}
        for f, row in mass.items():
            for t, w in out.get(f, ()):
                dst = nxt.setdefault(t, {})
                for j, v in row.items():
                    dst[j] = dst.get(j, 0) + w * v
        for i in lab:
            row = nxt.pop(i, None)
            if row:
                for j in sorted(row):
                    runs.setdefault((j, lab_pos[i]), []).append((step, row[j]))
        mass = nxt

    leftover = sum(v for row in mass.values() for v in row.values())
    if leftover:
        raise ValueError(
            f"probability {Fraction(leftover, power[steps])} not absorbed "
            "within k_eff+1 steps"
        )
    _check_conservation(runs, len(lab), power)
    return {key: [(t, Fraction(v, power[t])) for t, v in seq]
            for key, seq in runs.items()}


def _check_conservation(runs, n_labeled, power):
    """Raise unless the runs from each source carry probability 1: one pass
    sums each run's int mass over L^t as an int over L^steps, the last of
    the powers ``power[t] = L^t``."""
    full = power[-1]
    steps = len(power) - 1
    totals = [0] * n_labeled
    for (src, _), seq in runs.items():
        totals[src] += sum(v * power[steps - t] for t, v in seq)
    for j, tot in enumerate(totals):
        if tot != full:
            raise ValueError(
                f"source {j} total probability {Fraction(tot, full)} != 1")
