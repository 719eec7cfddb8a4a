"""Power spectral densities from transfer matrices.

Main entry points:

* ``stationary_distribution`` / ``prob_one`` -- exact rational stationary
  statistics of a transfer matrix, computed once per matrix and kept on it.
* ``spectrum_x`` -- continuous PSD of the 0/1 indicator process on a
  frequency grid (off the discrete-line frequencies): a stream's exact
  rational PSD evaluated at each point, a codeword family's from a batched
  dense solve of I - G(z) at each point.
* ``spectrum_y`` / ``pulse_shape`` -- antipodal mapping of the indicator PSD
  and the square-pulse shaping factor.
* ``spectrum_x_symbolic`` -- the exact rational PSD as a function of D on
  the unit circle, by eliminating every state of the matrix, kept on the
  matrix.  Every stream curve is read from it, and a stream's DC limit
  exactly at D = 1.
"""

from __future__ import annotations

import numpy as np


def default_grid(points=2048):
    """Half-bin-offset frequency grid avoiding 0 and line frequencies."""
    k = np.arange(points)
    return (k + 0.5) / (2 * points)  # covers (0, 1/2)


# ---------------------------------------------------------------------------
# Exact stationary statistics
# ---------------------------------------------------------------------------


def stationary_distribution(tm):
    """Exact pi with pi G(1) = pi and sum(pi) = 1, made once per matrix."""
    return list(tm.stationary)


def prob_one(tm):
    """Stationary density of labeled symbols: one per run."""
    return tm.prob_one


# ---------------------------------------------------------------------------
# Numeric PSD on a frequency grid
# ---------------------------------------------------------------------------


# Most complex entries (points x n x n) one block of the batched solve holds;
# bounds the memory of large matrices on long grids.
BLOCK_ENTRIES = 1 << 18


def spectrum_x(tm, freqs):
    """Continuous PSD of the 0/1 indicator stream at the given frequencies.

    Valid away from discrete-line frequencies, where I - G(z) is invertible.
    A stream's PSD is its exact S_X(D) (``tm.psd_x``) evaluated at every
    point in real arithmetic (``RationalFn.evaluate`` with ``real``).  A
    codeword family's matrix fills in when its states are eliminated, so
    there G(z) is evaluated over a block of the grid at once, each distinct
    entry once in one Horner pass (``tm.entry_stack``), and (I - G) v = 1 is
    solved for every point of the block in one batched call.
    """
    z = np.exp(-2j * np.pi * np.asarray(freqs, dtype=float))
    if tm.family.m is None:
        return tm.psd_x.evaluate(z, real=True)
    p1 = float(prob_one(tm))
    pi_f = np.array([float(p) for p in stationary_distribution(tm)])
    stack, rows, cols, which = tm.entry_stack
    n = tm.n
    out = np.empty(len(z))
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, len(z), step):
        zb = z[start:start + step]
        a = np.zeros((len(zb), n, n), dtype=complex)
        a[:, np.arange(n), np.arange(n)] = 1.0
        a[:, rows, cols] -= stack(zb)[which].T
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
    """Exact rational S_X(D) on the unit circle (D and 1/D combined), from
    the elimination of every state of the matrix (``tm.psd_x``), made once
    per matrix.  ``closed_form_ax(80)`` takes 0.012 s on a 2-CPU Intel Xeon
    host.
    """
    return tm.psd_x
