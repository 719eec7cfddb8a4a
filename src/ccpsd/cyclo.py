"""Exact phase-averaged autocorrelation of bridged fixed-length streams.

A stream of i.i.d. uniformly drawn codewords with x bridge symbols between
consecutive words is cyclostationary with period P = m + x.  This module
computes the phase-averaged autocorrelation R(k) with exact rational
arithmetic, splits it into periodic and aperiodic parts, and converts those
into discrete spectral lines and a continuous PSD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codebook import word_moments


@dataclass
class AutocorrSeries:
    period: int
    total: list  # R(k), k = 0..kmax, exact Fractions
    periodic: list  # same length; R(k) for a hypothetical independent stream
    aperiodic: list = field(init=False)  # total - periodic

    def __post_init__(self):
        self.aperiodic = [t - p for t, p in zip(self.total, self.periodic)]


def _levels(family, signal):
    """(scale, offset, f): a word bit b is sent as scale * b + offset, and
    the bridge value table f gives a bridge's value as f[a][c], from the
    last bit a of the left word and the first bit c of the right word.
    """
    if signal == "y":
        if family.bridging == "z_symbols":
            return 2, -1, [[0, 0], [0, 0]]  # z symbols sit at level 0
        return 2, -1, [[-1, -1], [-1, 1]]
    if signal == "x":
        if family.bridging == "z_symbols":
            raise ValueError("no 0/1 indicator for z-symbol bridging")
        return 1, 0, [[0, 0], [0, 1]]
    raise ValueError(f"unknown signal kind {signal!r}")


def exact_autocorr(codebook, signal="y"):
    """Phase-averaged R(k) for k = 0..kmax = (m + 2x - 1) + period.

    The aperiodic part vanishes beyond m + 2x - 1, and k = 0..kmax spans at
    least two full periods.  Only the codebook's family is read: every
    statistic comes from N and the counts G of words with two given bits
    set (``codebook.word_moments``), so no word is listed, and a codebook
    of given words is refused.
    """
    if not codebook.whole_family:
        raise ValueError("exact_autocorr counts a whole family's codebook,"
                         " not given words")
    fam = codebook.family
    m, x = fam.m, fam.x
    period = m + x
    kmax = (m + 2 * x - 1) + period
    scale, offset, f = _levels(fam, signal)
    n, g = word_moments(fam)
    n2, n3 = n * n, n * n * n

    # Boundary-bit classes: joint[a][c] words have last bit a and first
    # bit c.  Bridge statistics over the N x N (left, right) word pairs
    # come from these classes.
    ones = [g[q][q] for q in range(m)]
    both = g[0][m - 1]
    joint = [[n - ones[0] - ones[-1] + both, ones[0] - both],
             [ones[-1] - both, both]]
    n_last = [sum(row) for row in joint]
    n_first = [joint[0][c] + joint[1][c] for c in (0, 1)]
    brow = [f[a][0] * n_first[0] + f[a][1] * n_first[1] for a in (0, 1)]
    bcol = [f[0][c] * n_last[0] + f[1][c] * n_last[1] for c in (0, 1)]
    bridge_sum = brow[0] * n_last[0] + brow[1] * n_last[1]
    bridge_sq_sum = sum(f[a][c] ** 2 * n_last[a] * n_first[c]
                        for a in (0, 1) for c in (0, 1))
    # per word: bridges to its left summed, times bridges to its right summed
    bcol_brow = sum(bcol[c] * brow[a] * joint[a][c]
                    for a in (0, 1) for c in (0, 1))
    # column sums of the levels, over all words and over those whose last
    # (first) bit is 1; words with a 0 there take the rest of the column
    col = [scale * c + offset * n for c in ones]
    last1 = [scale * g[q][m - 1] + offset * n_last[1] for q in range(m)]
    first1 = [scale * g[0][q] + offset * n_first[1] for q in range(m)]
    w_brow = [brow[0] * (c - u) + brow[1] * u for c, u in zip(col, last1)]
    w_bcol = [bcol[0] * (c - v) + bcol[1] * v for c, v in zip(col, first1)]
    far = [c * bridge_sum * n for c in col]

    def gram(qa, qc):
        """Sum over the words of the levels at bits qa and qc."""
        return (scale * scale * g[qa][qc]
                + scale * offset * (ones[qa] + ones[qc]) + offset * offset * n)

    # Every pair mean is an integer over N^4 and every position mean one
    # over N^2; position q < m of a period is a word bit, q >= m a bridge.
    def pair(qa, qc, dt):
        """Mean of position qa of period 0 times position qc of period dt."""
        if qa < m and qc < m:
            return gram(qa, qc) * n3 if dt == 0 else col[qa] * col[qc] * n2
        if qa >= m and qc >= m:
            if dt == 0:
                return bridge_sq_sum * n2
            return bcol_brow * n if dt == 1 else bridge_sum * bridge_sum
        if qa < m:  # the word, then a bridge dt periods on
            return w_brow[qa] * n2 if dt == 0 else far[qa]
        # a bridge, then a word dt >= 1 periods on
        return w_bcol[qc] * n2 if dt == 1 else far[qc]

    pos = [c * n for c in col] + [bridge_sum] * x
    den = n2 * n2 * period
    total = []
    for k in range(kmax + 1):
        num = 0
        for qa in range(period):
            dt, qc = divmod(qa + k, period)
            num += pair(qa, qc, dt)
        total.append(Fraction(num, den))
    cycle = [Fraction(sum(u * v for u, v in zip(pos, pos[s:] + pos[:s])), den)
             for s in range(period)]
    periodic = [cycle[k % period] for k in range(kmax + 1)]

    series = AutocorrSeries(period=period, total=total, periodic=periodic)
    _check_aperiodic_support(series, m, x)
    return series


def _check_aperiodic_support(series, m, x):
    for k, v in enumerate(series.aperiodic):
        if k > m + 2 * x - 1 and v != 0:
            raise AssertionError("aperiodic part extends beyond dependence range")


def discrete_lines(series, with_pulse=True):
    """Spectral line weights at multiples of 1/period from the periodic part.

    Returns [(frequency, weight)] for n = 0..period-1 mapped into [0, 1).
    """
    p = series.period
    rp = np.array([float(v) for v in series.periodic[:p]])
    lines = []
    for nn in range(p):
        c = np.sum(rp * np.exp(-2j * np.pi * nn * np.arange(p) / p)) / p
        if abs(c.imag) > 1e-12 * max(1.0, abs(c.real)):
            raise AssertionError("complex line weight")
        f = nn / p
        weight = c.real
        if with_pulse:
            weight *= float(np.sinc(f) ** 2)
        lines.append((f, weight))
    return lines


def continuous_psd_from_aperiodic(series, freqs, with_pulse=True):
    """Finite cosine sum over the aperiodic autocorrelation."""
    freqs = np.asarray(freqs, dtype=float)
    ra = [float(v) for v in series.aperiodic]
    out = np.full(len(freqs), ra[0])
    for k in range(1, len(ra)):
        if ra[k] != 0.0:
            out += 2.0 * ra[k] * np.cos(2 * np.pi * freqs * k)
    if with_pulse:
        out *= np.sinc(freqs) ** 2
    return out


def bandwidth_3db(psd_fn, points=4096):
    """Twice the frequency where the PSD first drops to half its DC limit.

    psd_fn maps an array of frequencies in (0, 1/2] to PSD values; the DC
    limit is taken as the continuous extension at f = 0.
    """
    f = np.arange(1, points + 1) / (2 * points)
    s = psd_fn(f)
    s0 = float(psd_fn(np.array([0.0]))[0])
    thresh = s0 / 2.0
    below = np.nonzero(s <= thresh)[0]
    if len(below) == 0:
        raise ValueError("PSD never falls 3 dB below its DC value")
    i = below[0]
    if i == 0:
        return 2.0 * f[0]
    f0, f1 = f[i - 1], f[i]
    s0v, s1v = s[i - 1], s[i]
    fc = f0 + (thresh - s0v) * (f1 - f0) / (s1v - s0v)
    return 2.0 * fc
