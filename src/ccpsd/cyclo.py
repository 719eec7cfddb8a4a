"""Exact phase-averaged autocorrelation of bridged fixed-length streams.

A stream of i.i.d. uniformly drawn codewords with x bridge symbols between
consecutive words is cyclostationary with period P = m + x.  This module
computes the phase-averaged autocorrelation R(k) with exact rational
arithmetic as a periodic part, from the means of the positions, plus an
aperiodic part, from the covariances of the positions that share a word, and
converts those into discrete spectral lines and a continuous PSD.

The continuous PSD is a finite cosine sum over the aperiodic lags.  Series
evaluated together on one grid share its cosine rows: each row is computed
once per grid and lag and added to every series that has that lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codebook import pair_counts

# Frequencies in (0, 1/2] at which ``bandwidth_3db`` reads a PSD.
BANDWIDTH_POINTS = 4096

# Most values (PSDs x frequencies) ``bandwidth_3db`` reads in one block.
BLOCK_ENTRIES = 1 << 14


@dataclass
class AutocorrSeries:
    period: int
    total: list  # R(k), k = 0..kmax, exact Fractions
    periodic: list  # same length; R(k) for a hypothetical independent stream
    aperiodic: list  # same length; total - periodic


def signal_levels(family, signal):
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


def position_means(family, signal, n, ones):
    """N^2 times the mean of each position of a period under ``signal``: the
    m word bits, then the x bridge symbols, from the N words of the family
    and the counts ``ones[q]`` of those with bit q set."""
    scale, offset, f = signal_levels(family, signal)
    # Every table signal_levels returns has f[0][1] = f[1][0] = f[0][0], so
    # a bridge is f[0][0] + jump * a * c, from the last bit a of the word
    # before it and the first bit c of the word after it.
    jump = f[1][1] - f[0][0]
    return ([(scale * u + offset * n) * n for u in ones]
            + [f[0][0] * n * n + jump * ones[-1] * ones[0]] * family.x)


def exact_autocorr(codebook, signal="y"):
    """Phase-averaged R(k) for k = 0..kmax = (m + 2x - 1) + period.

    The aperiodic part vanishes beyond m + 2x - 1, and k = 0..kmax spans at
    least two full periods.  Only the codebook's family is read: every
    statistic comes from N and the pair counts of ``codebook.pair_counts``,
    so no word is listed.

    The periodic part is the cyclic product of the position means.  Words
    are drawn independently, so only positions that share a word covary,
    and the aperiodic part at lag k sums the covariances of those pairs
    over the positions of one period.  Every mean is an int over N^2 and
    every covariance one over N^4.
    """
    fam = codebook.family
    m, x = fam.m, fam.x
    period = m + x
    kmax = (m + 2 * x - 1) + period
    scale, _, f = signal_levels(fam, signal)
    n, ones, with_first, with_last, _, lag_sums = pair_counts(fam)
    n2 = n * n
    first, last = ones[0], ones[-1]
    jump = f[1][1] - f[0][0]  # a bridge moves by jump when a = c = 1

    pos = position_means(fam, signal, n, ones)
    den = n2 * n2 * period
    cycle_num = [sum(u * v for u, v in zip(pos, pos[s:] + pos[:s]))
                 for s in range(period)]
    cycle = [Fraction(c, den) for c in cycle_num]
    periodic = [cycle[k % period] for k in range(kmax + 1)]

    # N^2 times the covariances of bit q with bit 0 and with bit m - 1
    cov_first = [n * g - u * first for g, u in zip(with_first, ones)]
    cov_last = [n * g - u * last for g, u in zip(with_last, ones)]
    # N^4 times the covariance of bit q with the bridge after its word, of
    # whose a and c only a is in that word, and with the bridge before it
    word_bridge = [scale * jump * first * n * c for c in cov_last]
    bridge_word = [scale * jump * last * n * c for c in cov_first]
    # and of two symbols of one bridge, and of a bridge and the next one
    bridge_same = jump * jump * last * first * (n2 - last * first)
    bridge_next = jump * jump * last * first * cov_last[0]

    # Lag k pairs each position q of period 0 with position q + k.  Only
    # the pairs that share a word covary, and there are five kinds of them.
    aperiodic_num = []
    for k in range(kmax + 1):
        num = 0
        if k < m:  # bits i and i + k of one word
            num += scale * scale * n2 * (
                n * lag_sums[k] - sum(u * v for u, v in zip(ones, ones[k:])))
        # bit i of a word and the bridge after it: m <= i + k < period
        num += sum(word_bridge[max(m - k, 0):max(period - k, 0)])
        # two symbols of one bridge, k apart
        num += bridge_same * max(x - k, 0)
        # a bridge symbol q and bit q + k - period of the next word
        num += sum(bridge_word[max(k - x, 0):k])
        # symbols of a bridge and of the next one, which lies period on
        num += bridge_next * max(x - abs(k - period), 0)
        aperiodic_num.append(num)

    _check_aperiodic_support(aperiodic_num, m, x)
    aperiodic = [Fraction(a, den) for a in aperiodic_num]
    # one Fraction per lag over the shared den, not a sum of reduced ones
    total = [Fraction(cycle_num[k % period] + a, den)
             for k, a in enumerate(aperiodic_num)]
    return AutocorrSeries(period=period, total=total, periodic=periodic,
                          aperiodic=aperiodic)


def _check_aperiodic_support(aperiodic, m, x):
    for k, v in enumerate(aperiodic):
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


def cosine_series(r, freqs, with_pulse):
    """r[0] + 2 sum_k r[k] cos(2 pi f k) at each f, over the nonzero lags
    k >= 1 in order, times sinc(f)^2 when ``with_pulse``.

    ``r`` is one series, or a 2-D array of series, one per row and zero
    beyond its last lag, which gives one row of values each.  Each cosine
    row is computed once and 2 r[k] times it is added to every series whose
    r[k] is nonzero, so a series has the same values alone or in a batch.
    """
    r = np.asarray(r, dtype=float)
    rows = r.reshape(-1, r.shape[-1])
    out = np.repeat(rows[:, :1], len(freqs), axis=1)
    omega = 2 * np.pi * freqs  # so omega * k is 2 * np.pi * freqs * k
    coef = (2.0 * rows).T.tolist()  # coef[k][i]: 2 r[k] of series i
    for k in range(1, len(coef)):
        uses = [(i, c) for i, c in enumerate(coef[k]) if c != 0.0]
        if uses:
            row = np.cos(omega * k)
            for i, c in uses:
                out[i] += c * row
    if with_pulse:
        out *= np.sinc(freqs) ** 2
    return out.reshape(r.shape[:-1] + (len(freqs),))


def aperiodic_rows(series):
    """The aperiodic part of one ``AutocorrSeries`` as floats, or of each
    of a list of them as a row, zero-padded to the longest."""
    if isinstance(series, AutocorrSeries):
        return np.array([float(v) for v in series.aperiodic])
    out = np.zeros((len(series), max(len(s.aperiodic) for s in series)))
    for row, s in zip(out, series):
        row[:len(s.aperiodic)] = [float(v) for v in s.aperiodic]
    return out


def continuous_psd_from_aperiodic(series, freqs, with_pulse=True):
    """Finite cosine sum over the aperiodic autocorrelation of one series,
    or of each of a list of series, one row of values each."""
    return cosine_series(aperiodic_rows(series),
                         np.asarray(freqs, dtype=float), with_pulse)


def bandwidth_3db(psd_fn):
    """Twice the frequency where the PSD first drops to half its DC limit.

    psd_fn maps an array of frequencies in (0, 1/2] to PSD values, or to a
    2-D array with one row per PSD, for which an array of bandwidths is
    returned.  The DC limit is taken as the continuous extension at f = 0.
    The ``BANDWIDTH_POINTS`` frequencies are read in blocks of at most
    ``BLOCK_ENTRIES`` values, until every PSD has fallen to half.
    """
    f = np.arange(1, BANDWIDTH_POINTS + 1) / (2 * BANDWIDTH_POINTS)
    half = np.asarray(psd_fn(np.array([0.0])))[..., 0] / 2.0
    thresh = half.reshape(-1)
    bw = np.empty(len(thresh))
    todo = list(range(len(thresh)))
    step = max(1, BLOCK_ENTRIES // len(thresh))
    s = np.empty((len(thresh), 0))
    for lo in range(0, BANDWIDTH_POINTS, step):
        # the block's values after the last point before it
        s = np.hstack([s[:, -1:], np.reshape(psd_fn(f[lo:lo + step]),
                                             (len(thresh), -1))])
        fs = f[max(lo - 1, 0):]
        for j in list(todo):
            below = np.flatnonzero(s[j] <= thresh[j])
            if len(below):
                todo.remove(j)
                bw[j] = _crossing(fs, s[j], below[0], thresh[j])
        if not todo:
            return bw.reshape(half.shape)[()]
    raise ValueError("PSD never falls 3 dB below its DC value")


def _crossing(f, s, i, thresh):
    """Twice the frequency, interpolated linearly, where ``s`` falls to
    ``thresh`` between points i - 1 and i of ``f``."""
    if i == 0:
        return 2.0 * f[0]
    f0, f1 = f[i - 1], f[i]
    s0v, s1v = s[i - 1], s[i]
    fc = f0 + (thresh - s0v) * (f1 - f0) / (s1v - s0v)
    return 2.0 * fc
