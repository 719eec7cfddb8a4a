"""Run-length distributions of self-clocked codes, bounded by k_eff.

Self-clocked codebooks exclude the all-zero and all-one words, so every
stream shows a transition at least once every k_eff = 2(m-1) + x symbols.
Every run between labeled states then ends within k_eff + 1 steps, so each
entry of the reduced per-bit diagram (``fstd.path_functions``) is a
polynomial in D whose coefficient of D^t is the probability of a run of t
steps: ``bfs_ostd`` reads the run lists from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codebook import CLOCKED_KINDS
from .fstd import path_functions
from .ratfn import sum_at_one


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
    return ClockedInputs(
        n=len(fstd.states),
        transitions=[(f, t, p) for f, t, _, p in fstd.edges],
        labeled=[s.labeled for s in fstd.states],
        k_eff=effective_run_bound(fam.m, fam.x))


def bfs_ostd(inputs):
    """{(src_label_idx, dst_label_idx): [(steps, probability), ...]}, the
    nonzero coefficients of each entry of ``fstd.path_functions``, ordered
    by (first step, target, source): the order in which the breadth-first
    search this name is kept from absorbed them.  Raises if runs longer
    than k_eff + 1 steps carry probability (a non-polynomial entry, from an
    unlabeled cycle, carries its value at 1 less its first k_eff + 2 series
    coefficients), or unless the runs from each source carry 1."""
    out = path_functions(inputs.transitions, inputs.labeled)
    pos = {i: k for k, i in enumerate(out)}  # only labeled states are left
    bound = inputs.k_eff + 1
    runs, late = {}, 0
    for i, row in out.items():
        for j, fn in row.items():
            seq = fn.terms()
            if seq is None:
                late += fn.evaluate(1) - sum(fn.series_coefficients(bound + 1))
            else:
                late += sum(p for t, p in seq if t > bound)
                runs[pos[i], pos[j]] = seq
    if late:
        raise ValueError(f"probability {late} not absorbed within k_eff+1 steps")
    for j, row in enumerate(out.values()):
        total = sum_at_one(row.values())
        if total != 1:
            raise ValueError(f"source {j} total probability {total} != 1")
    return dict(sorted(runs.items(),
                       key=lambda kv: (kv[1][0][0], kv[0][1], kv[0][0])))
