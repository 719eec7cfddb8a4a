"""One-step reduction for self-clocked codes by bounded probability BFS.

Self-clocked codebooks exclude the all-zero and all-one words, so every
stream shows a transition at least once every k_eff = 2(m-1) + x symbols.
That bound lets the label-to-label run-length distributions be found by
propagating probability mass through the per-bit diagram for at most
k_eff + 1 steps, with mass absorbed whenever it reaches a labeled state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codebook import CLOCKED_KINDS


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
    fstd.check()  # per-state symbol consistency and stochasticity
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
    """
    lab = [i for i, flag in enumerate(inputs.labeled) if flag]
    lab_pos = {i: k for k, i in enumerate(lab)}
    # mass[i][j]: probability of being at state i, started from labeled j,
    # having not revisited any labeled state yet
    mass = [[Fraction(0)] * len(lab) for _ in range(inputs.n)]
    for j, i in enumerate(lab):
        mass[i][j] = Fraction(1)

    edges = {}
    for step in range(1, inputs.k_eff + 2):
        nxt = [[Fraction(0)] * len(lab) for _ in range(inputs.n)]
        for f, t, p in inputs.transitions:
            row = mass[f]
            if any(row):
                dst = nxt[t]
                for j, v in enumerate(row):
                    if v:
                        dst[j] += p * v
        for i in lab:
            for j, v in enumerate(nxt[i]):
                if v:
                    edges.setdefault((j, lab_pos[i]), []).append((step, v))
            nxt[i] = [Fraction(0)] * len(lab)
        mass = nxt

    leftover = sum(sum(row, Fraction(0)) for row in mass)
    if leftover != 0:
        raise ValueError(
            f"probability {leftover} not absorbed within k_eff+1 steps"
        )
    _check_conservation(edges, len(lab))
    return edges


def _check_conservation(edges, n_labeled):
    for j in range(n_labeled):
        tot = sum(
            (p for (src, _), runs in edges.items() if src == j for _, p in runs),
            Fraction(0),
        )
        if tot != 1:
            raise ValueError(f"source {j} total probability {tot} != 1")

