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
    ones = np.cumsum(runs)
    ones -= 1
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
        runs = np.where(short, 1, x + 1 + rng.geometric(0.5, size=n_runs))
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
        levels = rng.integers(0, 2, size=n)
        levels *= 2
        levels -= 1
        return levels.astype(np.int8)

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


# Most symbols one chunk of the lag-product accumulation casts to float32;
# bounds the estimator's copy of the stream (4 MB).
CHUNK_SYMBOLS = 1 << 20
# Lags one pass of the Gram-matrix accumulation covers; bounds its B x B
# matrices when many lags are asked for.
LAG_BLOCK = 512


def _lag_sums(stream, k0, lags):
    """sum_a s[a] s[a+k] for k0 <= k < k0 + lags, exact, as float64.

    With u = s[:n-k0] and w = s[k0:] cut into rows of B symbols, a pair at
    lag k0 + j (j < B) lies in one row or in two adjacent rows, so its sum
    is the j-th diagonal of U^T W plus the (j-B)-th diagonal of
    U[:-1]^T W[1:], plus the pairs that reach past the last full row.  Each
    product is in {-1, 0, 1} and a chunk of at most CHUNK_SYMBOLS symbols
    keeps every partial sum an integer below 2^24, so the float32 matrix
    products are exact in any summation order.
    """
    n = len(stream) - k0
    b = max(lags, 64)  # shorter rows make matrix products too small to be fast
    rows = n // b
    step = max(1, CHUNK_SYMBOLS // b)
    c0 = np.zeros((b, b))
    c1 = np.zeros((b, b))
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        hi = min(r1 + 1, rows) * b  # one overlap row for pairs across rows
        w = stream[k0 + r0 * b:k0 + hi].astype(np.float32).reshape(-1, b)
        u = w if k0 == 0 else (
            stream[r0 * b:hi].astype(np.float32).reshape(-1, b))
        c0 += u[:r1 - r0].T @ w[:r1 - r0]
        c1 += u[:-1].T @ w[1:]
    out = np.empty(lags)
    tail = rows * b
    for j in range(lags):
        lo = max(0, tail - j)
        rest = np.dot(stream[lo:n - j].astype(np.int64),
                      stream[k0 + lo + j:k0 + n].astype(np.int64))
        out[j] = np.trace(c0, j) + np.trace(c1, j - b) + float(rest)
    return out


def estimate_autocorr(stream, kmax):
    """Biased-normalization lag products, phase-averaged by construction.

    ``stream`` is an integer array with values in {-1, 0, 1}.  The lag sums
    come from blocked Gram matrices of the stream (see ``_lag_sums``), which
    are exact, so each lag equals one dot product over the whole stream.
    """
    stream = np.asarray(stream)
    if stream.ndim != 1 or not np.issubdtype(stream.dtype, np.integer):
        raise ValueError("stream must be a one-dimensional integer array")
    n = len(stream)
    if not 0 <= kmax < n:
        raise ValueError(f"kmax={kmax} must lie in [0, {n})")
    if stream.min() < -1 or stream.max() > 1:
        raise ValueError("stream values must lie in {-1, 0, 1}")
    out = np.empty(kmax + 1)
    for k0 in range(0, kmax + 1, LAG_BLOCK):
        lags = min(LAG_BLOCK, kmax + 1 - k0)
        out[k0:k0 + lags] = _lag_sums(stream, k0, lags)
    return out / (n - np.arange(kmax + 1))


def _estimate_periodic(stream, period, kmax):
    """Autocorrelation of the per-phase mean profile."""
    rows = len(stream) // period
    prof = (stream[:rows * period].reshape(-1, period)
            .sum(axis=0, dtype=np.int64) / rows)
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
        ra = r - (np.float64(stream.sum(dtype=np.int64)) / len(stream)) ** 2
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
