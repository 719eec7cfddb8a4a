"""Power spectral densities from transfer matrices.

Main entry points:

* ``stationary_distribution`` / ``prob_one`` -- exact rational stationary
  statistics of a transfer matrix.
* ``spectrum_x`` -- continuous PSD of the 0/1 indicator process on a
  frequency grid (off the discrete-line frequencies).
* ``spectrum_y`` / ``pulse_shape`` -- antipodal mapping of the indicator PSD
  and the square-pulse shaping factor.
* ``spectrum_x_symbolic`` / ``nrzi_psd_symbolic`` -- exact rational PSDs as
  functions of D on the unit circle, for closed-form cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .ratfn import ONE, RationalFn, ZERO, solve


def default_grid(points=2048):
    """Half-bin-offset frequency grid avoiding 0 and line frequencies."""
    k = np.arange(points)
    return (k + 0.5) / (2 * points)  # covers (0, 1/2)


# ---------------------------------------------------------------------------
# Exact stationary statistics
# ---------------------------------------------------------------------------


def stationary_distribution(tm):
    """Exact pi with pi G(1) = pi and sum(pi) = 1."""
    g1 = tm.at_one()
    n = tm.n
    # (G(1)^T - I) pi = 0 with normalization replacing the last equation
    a = [[g1[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    a[n - 1] = [Fraction(1)] * n
    b = [[Fraction(0)]] * (n - 1) + [[Fraction(1)]]
    pi = [row[0] for row in solve(a, b)]
    if any(p < 0 for p in pi):
        raise ValueError("stationary distribution has negative entries")
    return pi


def mean_run_length(tm, pi=None):
    pi = pi or stationary_distribution(tm)
    dg = tm.derivative_at_one()
    return sum(pi[i] * sum(dg[i]) for i in range(tm.n))


def prob_one(tm, pi=None):
    """Stationary density of labeled symbols: one per run."""
    return 1 / mean_run_length(tm, pi)


# ---------------------------------------------------------------------------
# Numeric PSD on a frequency grid
# ---------------------------------------------------------------------------


# Most complex entries (points x n x n) one block of the batched solve holds;
# bounds the memory of large matrices on long grids.
BLOCK_ENTRIES = 1 << 18


def spectrum_x(tm, freqs):
    """Continuous PSD of the 0/1 indicator stream at the given frequencies.

    Valid away from discrete-line frequencies, where I - G(z) is invertible.
    G(z) is evaluated over a block of the grid at once and (I - G) v = 1 is
    solved for every point of the block in one batched call.
    """
    pi = stationary_distribution(tm)
    p1 = float(prob_one(tm, pi))
    pi_f = np.array([float(p) for p in pi])
    n = tm.n
    z = np.exp(-2j * np.pi * np.asarray(freqs, dtype=float))
    nonzero = [(i, j, e) for i, row in enumerate(tm.entries)
               for j, e in enumerate(row) if e]
    out = np.empty(len(z))
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, len(z), step):
        zb = z[start:start + step]
        a = np.zeros((len(zb), n, n), dtype=complex)
        a[:, np.arange(n), np.arange(n)] = 1.0
        for i, j, e in nonzero:
            a[:, i, j] -= e.evaluate(zb)
        v = np.linalg.solve(a, np.ones((len(zb), n, 1)))[:, :, 0]
        # a sum per row, so a point's value does not depend on its block
        out[start:start + step] = p1 * (2.0 * (v.real * pi_f).sum(axis=1) - 1.0)
    return out


def spectrum_y(tm, freqs):
    """Antipodal (+1/-1) signaling: continuous part scales by four."""
    return 4.0 * spectrum_x(tm, freqs)


def pulse_shape(freqs):
    """Unit square pulse magnitude-squared response, unit symbol time."""
    return np.sinc(np.asarray(freqs, dtype=float)) ** 2


def dc_line_weight(tm):
    """Weight of the f=0 spectral line of the antipodal signal."""
    p1 = prob_one(tm)
    return (2 * p1 - 1) ** 2


# ---------------------------------------------------------------------------
# Exact symbolic PSDs
# ---------------------------------------------------------------------------


def spectrum_x_symbolic(tm):
    """Exact rational S_X(D) on the unit circle (D and 1/D combined).

    Returns the rational function whose value at D = exp(-2 pi i f) is the
    continuous indicator PSD.  Only practical for small matrices.
    """
    pi = stationary_distribution(tm)
    p1 = prob_one(tm, pi)
    n = tm.n
    a = [
        [
            (ONE if i == j else ZERO) - tm.entries[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    v = solve(a, [[ONE]] * n)
    pv = ZERO
    for i in range(n):
        pv = pv + RationalFn.const(pi[i]) * v[i][0]
    total = pv + pv.substitute_inverse() - ONE
    return RationalFn.const(p1) * total


def nrzi_psd_symbolic(tm):
    """Exact antipodal PSD via the transition-run (precoded) formulation.

    The input matrix tracks runs between transitions; the output equals the
    antipodal PSD of the corresponding level signal on the unit circle.
    """
    pi = stationary_distribution(tm)
    p1 = prob_one(tm, pi)
    n = tm.n
    d = RationalFn.monomial(Fraction(1), 1)
    one_minus_d = ONE - d

    gu = [sum((tm.entries[i][j] for j in range(n)), ZERO) for i in range(n)]
    rho = [(ONE - gu[i]) / one_minus_d for i in range(n)]
    pig = [sum((RationalFn.const(pi[i]) * tm.entries[i][j] for i in range(n)), ZERO)
           for j in range(n)]
    lam_pref = RationalFn.const(p1) * d / one_minus_d
    lam = [lam_pref * (RationalFn.const(pi[j]) - pig[j]) for j in range(n)]

    pi_rho = sum((RationalFn.const(pi[i]) * rho[i] for i in range(n)), ZERO)
    w0 = ONE / one_minus_d - RationalFn.const(p1) * d * pi_rho / one_minus_d - ONE

    a = [[(ONE if i == j else ZERO) + tm.entries[i][j] for j in range(n)]
         for i in range(n)]
    y = solve(a, [[r] for r in rho])
    lam_y = sum((lam[j] * y[j][0] for j in range(n)), ZERO)
    phi = w0 - lam_y
    return ONE + phi + phi.substitute_inverse()
