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


def spectrum_x(tm, freqs):
    """Continuous PSD of the 0/1 indicator stream at the given frequencies.

    Valid away from discrete-line frequencies, where I - G(z) is invertible.
    """
    pi = stationary_distribution(tm)
    p1 = prob_one(tm, pi)
    pi_c = np.array([complex(p) for p in pi])
    p1_f = float(p1)
    n = tm.n
    u = np.ones(n, dtype=complex)
    eye = np.eye(n, dtype=complex)
    out = np.empty(len(freqs))
    for k, f in enumerate(np.asarray(freqs, dtype=float)):
        z = np.exp(-2j * np.pi * f)
        g = tm.evaluate(z)
        v = np.linalg.solve(eye - g, u)
        out[k] = p1_f * (2.0 * np.real(pi_c @ v) - 1.0)
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
