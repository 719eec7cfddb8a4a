"""Seeded Monte-Carlo stream generation and empirical spectra.

Streams are generated with a counter-based Philox generator so runs are
reproducible across platforms.  ``estimate_psd`` mirrors the analytical
pipeline: subtract the (estimated) periodic part of the autocorrelation,
then take a finite cosine transform of the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import ConstraintFamily, enumerate_codebook


@dataclass
class StreamConfig:
    family: ConstraintFamily
    n_symbols: int
    seed: int = 0


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _runs_to_levels(runs, n_symbols):
    """Bit process with a one terminating each run, as +-1 levels."""
    ones = np.cumsum(runs) - 1
    ones = ones[ones < n_symbols]
    y = -np.ones(n_symbols, dtype=np.int8)
    y[ones] = 1
    return y


def generate_stream(config):
    """Generate n_symbols of the +-1 (or three-level) waveform samples."""
    fam = config.family
    n = config.n_symbols
    rng = _rng(config.seed)
    x = fam.x

    if fam.kind == "ax":
        # run = 1 with prob 1/2, else x+1 zeros then a geometric tail
        n_runs = int(n / 1.4) + 2 * x + 64
        short = rng.random(n_runs) < 0.5
        tails = x + 1 + rng.geometric(0.5, size=n_runs)
        runs = np.where(short, 1, tails)
        while runs.sum() < n:
            extra_short = rng.random(n_runs) < 0.5
            extra = np.where(extra_short, 1, x + 1 + rng.geometric(0.5, n_runs))
            runs = np.concatenate([runs, extra])
        return _runs_to_levels(runs, n)

    if fam.kind == "sx":
        # alternating one-runs and zero-runs, each of length x + geometric
        n_blocks = int(n / (x + 1.5)) + 64
        lens = x + rng.geometric(0.5, size=n_blocks)
        while lens.sum() < n:
            lens = np.concatenate([lens, x + rng.geometric(0.5, size=n_blocks)])
        signs = np.empty(len(lens), dtype=np.int8)
        signs[0::2] = 1
        signs[1::2] = -1
        return np.repeat(signs, lens)[:n]

    if fam.kind == "iid":
        bits = rng.integers(0, 2, size=n)
        return (2 * bits - 1).astype(np.int8)

    # fixed-length families: words drawn uniformly, bridges in between
    cb = enumerate_codebook(fam)
    words = np.array(cb.words, dtype=np.int8)
    m = fam.m
    period = m + x
    n_words = (n // period) + 2
    idx = rng.integers(0, len(cb.words), size=n_words)
    w = words[idx]  # (n_words, m)
    out = np.zeros((n_words - 1, period), dtype=np.int8)
    if fam.bridging == "z_symbols":
        out[:, :m] = 2 * w[:-1] - 1  # word bits as levels, bridges stay 0
    else:
        out[:, :m] = 2 * w[:-1] - 1
        both = (w[:-1, -1] == 1) & (w[1:, 0] == 1)
        out[:, m:] = np.where(both[:, None], 1, -1)
    return out.reshape(-1)[:n]


def estimate_autocorr(stream, kmax):
    """Biased-normalization lag products, phase-averaged by construction."""
    v = stream.astype(np.float64)
    n = len(v)
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        out[k] = float(np.dot(v[: n - k], v[k:])) / (n - k)
    return out


def _estimate_periodic(stream, period, kmax):
    """Autocorrelation of the per-phase mean profile."""
    v = stream.astype(np.float64)
    n = (len(v) // period) * period
    prof = v[:n].reshape(-1, period).mean(axis=0)
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        out[k] = float(np.mean(prof * np.roll(prof, -k % period)))
    return out


def estimate_psd(stream, freqs, family=None, kmax=None, with_pulse=False):
    """Empirical continuous PSD via truncated cosine transform.

    The periodic part (per-phase mean profile for fixed-length families, the
    squared mean otherwise) is removed before the transform so spectral lines
    do not leak into the continuous estimate.
    """
    freqs = np.asarray(freqs, dtype=float)
    if family is not None and family.m is not None:
        m, x = family.m, family.x
        period = m + x
        kmax = kmax if kmax is not None else m + 2 * x - 1
        r = estimate_autocorr(stream, kmax)
        rp = _estimate_periodic(stream, period, kmax)
        ra = r - rp
    else:
        kmax = kmax if kmax is not None else 64
        r = estimate_autocorr(stream, kmax)
        ra = r - np.mean(stream.astype(np.float64)) ** 2
    out = np.full(len(freqs), ra[0])
    for k in range(1, kmax + 1):
        out += 2.0 * ra[k] * np.cos(2 * np.pi * freqs * k)
    if with_pulse:
        out *= np.sinc(freqs) ** 2
    return out


def deviation_report(estimated, theoretical, freqs):
    diff = np.abs(np.asarray(estimated) - np.asarray(theoretical))
    i = int(np.argmax(diff))
    return {
        "max_abs_deviation": float(diff[i]),
        "at_frequency": float(np.asarray(freqs)[i]),
        "mean_abs_deviation": float(diff.mean()),
        "points": int(len(diff)),
    }
