"""Exact phase-averaged autocorrelation of bridged fixed-length streams.

A stream of i.i.d. uniformly drawn codewords with x bridge symbols between
consecutive words is cyclostationary with period P = m + x.  This module
computes the phase-averaged autocorrelation R(k) with exact rational
arithmetic, splits it into periodic and aperiodic parts, and converts those
into discrete spectral lines and a continuous PSD.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass
class AutocorrSeries:
    period: int
    total: list  # R(k), k = 0..kmax, exact Fractions
    periodic: list  # same length; R(k) for a hypothetical independent stream

    @property
    def aperiodic(self):
        return [t - p for t, p in zip(self.total, self.periodic)]


def _signal_arrays(codebook, signal):
    """Word value matrix W (N x m) and bridge value matrix B (N x N)."""
    fam = codebook.family
    words = np.array(codebook.words, dtype=np.int64)
    n = len(codebook.words)
    if signal == "y":
        w = 2 * words - 1
        if fam.bridging == "z_symbols":
            b = np.zeros((n, n), dtype=np.int64)  # z symbols sit at level 0
        else:
            both = np.outer(words[:, -1], words[:, 0])
            b = 2 * both - 1
    elif signal == "x":
        w = words
        if fam.bridging == "z_symbols":
            raise ValueError("no 0/1 indicator for z-symbol bridging")
        b = np.outer(words[:, -1], words[:, 0])
    else:
        raise ValueError(f"unknown signal kind {signal!r}")
    return w, b


def _position_kind(pos, m, period):
    """('word', word_period) or ('bridge', left_word_period) plus offset."""
    t, q = divmod(pos, period)
    if q < m:
        return ("word", t, q)
    return ("bridge", t, q - m)


def exact_autocorr(codebook, signal="y"):
    """Phase-averaged R(k) for k = 0..kmax = (m + 2x - 1) + period.

    The aperiodic part vanishes beyond m + 2x - 1, and k = 0..kmax spans at
    least two full periods.
    """
    fam = codebook.family
    m, x = fam.m, fam.x
    period = m + x
    kmax = (m + 2 * x - 1) + period
    w, b = _signal_arrays(codebook, signal)
    n = w.shape[0]
    n2, n3 = n * n, n * n * n

    word_mean = [Fraction(int(w[:, q].sum()), n) for q in range(m)]
    bridge_mean = Fraction(int(b.sum()), n2)
    brow = b.sum(axis=1)  # by left word
    bcol = b.sum(axis=0)  # by right word

    def pos_mean(kind):
        if kind[0] == "word":
            return word_mean[kind[2]]
        return bridge_mean

    def pair_mean(a, c):
        ka, kc = _position_kind(a, m, period), _position_kind(c, m, period)
        if ka[0] == "word" and kc[0] == "word":
            if ka[1] == kc[1]:
                return Fraction(int((w[:, ka[2]] * w[:, kc[2]]).sum()), n)
            return word_mean[ka[2]] * word_mean[kc[2]]
        if ka[0] == "bridge" and kc[0] == "bridge":
            if ka[1] == kc[1]:
                return Fraction(int((b * b).sum()), n2)
            if abs(ka[1] - kc[1]) == 1:
                return Fraction(int((bcol * brow).sum()), n3)
            return bridge_mean * bridge_mean
        if ka[0] == "bridge":
            ka, kc = kc, ka
        # word in period t against bridge joining periods t', t'+1
        t, q = ka[1], ka[2]
        tb = kc[1]
        if t == tb:
            return Fraction(int((w[:, q] * brow).sum()), n2)
        if t == tb + 1:
            return Fraction(int((w[:, q] * bcol).sum()), n2)
        return word_mean[q] * bridge_mean

    total = []
    for k in range(kmax + 1):
        acc = Fraction(0)
        for ell in range(period):
            acc += pair_mean(ell, ell + k)
        total.append(acc / period)

    periodic = []
    for k in range(kmax + 1):
        acc = Fraction(0)
        for ell in range(period):
            acc += pos_mean(_position_kind(ell, m, period)) * pos_mean(
                _position_kind((ell + k) % period, m, period)
            )
        periodic.append(acc / period)

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
