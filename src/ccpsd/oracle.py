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
from .cyclo import cosine_series, signal_levels


@dataclass
class StreamConfig:
    family: ConstraintFamily
    n_symbols: int
    seed: int = 0


# Most draws one chunk of stream generation makes, and most symbols one
# chunk of the lag-product accumulation casts to float32; bounds the scratch
# of each (a few arrays of 8 bytes a draw, 512 KB of float32 stream), which
# then stays in cache.
CHUNK_SYMBOLS = 1 << 17
# Lags one pass of the Gram-matrix accumulation covers; bounds its B x B
# matrices when many lags are asked for.
LAG_BLOCK = 512
# Periods one row of the per-phase profile sum spans; wide rows make the
# column sums fast, and folding a row gives the per-phase sums.
PROFILE_FOLD = 1024


def _rng(seed, offset=0):
    """Generator whose next 64-bit draw is draw ``offset`` of Philox(seed).

    Philox is counter based: each counter value gives four 64-bit draws, so
    moving the counter by offset // 4 and dropping offset % 4 draws lands on
    any draw without making the ones before it.
    """
    bits = np.random.Philox(seed)
    bits.advance(offset // 4)
    bits.random_raw(offset % 4, output=False)
    return np.random.Generator(bits)


def _geometric_half(rng, size, shift=0):
    """``shift + rng.geometric(0.5, size)`` from the same draws, as int64.

    numpy draws a geometric with p >= 1/3 by search: X is the least X >= 1
    with U <= 1 - 2^-X for one uniform U per draw, and at p = 1/2 each
    partial sum 1 - 2^-X is exact.  With 1 - U = g 2^(E - 1023), 1 <= g < 2
    and E its biased IEEE exponent, that X is 1023 - E, or 1 where U = 0
    gives E = 1023.  E is read from the bits of 1 - U in place.
    """
    u = rng.random(size)
    np.subtract(1.0, u, out=u)
    e = u.view(np.int64)
    e >>= 52
    np.subtract(1023 + shift, e, out=e)
    return np.maximum(e, shift + 1, out=e)


def _chunk(n_left, mean, draws_left):
    """Draws for the next chunk: enough for the expected n_left symbols."""
    return min(CHUNK_SYMBOLS, draws_left, int(n_left / mean) + 64)


def _ax_batch_runs(n, x):
    """Runs in one batch of ax draws; one batch nearly always covers n."""
    return int(n / 1.4) + 2 * x + 64


def _ax_levels(seed, n, x):
    """Runs of one with prob 1/2, else x+1 zeros and a geometric tail.

    A batch of n_runs runs takes its n_runs short-or-long uniforms and then
    its n_runs geometric tails; batch b starts at draw 2 b n_runs.  Runs are
    drawn in chunks, each end marked with a one, until n symbols are set.
    """
    n_runs = _ax_batch_runs(n, x)
    y = np.full(n, -1, dtype=np.int8)
    pos = 0  # symbols set so far; the next run starts here
    batch = 0
    while True:
        short = _rng(seed, 2 * batch * n_runs)
        tail = _rng(seed, (2 * batch + 1) * n_runs)
        done = 0
        while done < n_runs:
            c = _chunk(n - pos, (x + 4) / 2, n_runs - done)
            # a uniform (draw >> 11) 2^-53 is >= 1/2 when the draw's top
            # bit is set: then the run is long, 1 + x + geometric
            long = short.bit_generator.random_raw(c)
            long >>= 63
            ends = _geometric_half(tail, c, x)
            ends *= long.view(np.int64)
            ends += 1
            ends[0] += pos - 1  # the cumulative sums become end positions
            np.cumsum(ends, out=ends)
            y[ends[:np.searchsorted(ends, n)]] = 1
            pos = int(ends[-1]) + 1
            if pos >= n:
                return y
            done += c
        batch += 1


def _flip_levels(flips, size, level):
    """``size`` int8 symbols at +-level: ``level`` before the first of the
    distinct indices ``flips``, its sign flipped at each of them.

    The sign of a symbol is the parity of the flips at or before it.  The
    flips are marked one bit each, 64 to a word in the order of the symbols;
    six shift-xors give each bit the parity of its word up to it, and a
    running xor of the words' top bits carries the parity across words.
    """
    marks = np.zeros(-(-size // 64) * 64, dtype=np.uint8)
    marks[flips] = 1
    words = np.packbits(marks, bitorder="little").view("<u8")
    del marks  # so the unpacked signs take its place
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    # all ones in the words after an odd number of flips
    words[1:] ^= -np.bitwise_xor.accumulate(words[:-1] >> 63)
    signs = np.unpackbits(words.view(np.uint8), bitorder="little")[:size]
    signs = signs.view(np.int8)
    signs *= -2 * level
    signs += level
    return signs


def _sx_levels(seed, n, x):
    """Alternating one-runs and zero-runs, each of length x + geometric.

    Blocks draw one after another (top-up batches continue the same
    draws), block i a one-run when i is even.  Each chunk of blocks is
    written as the sign flips at its block starts (see ``_flip_levels``).
    """
    rng = _rng(seed)
    y = np.empty(n, dtype=np.int8)
    pos = 0
    odd = False  # whether the next block is a zero-run
    while pos < n:
        c = _chunk(n - pos, x + 2, CHUNK_SYMBOLS)
        ends = np.cumsum(_geometric_half(rng, c, x))  # block ends from pos
        # the blocks up to the first that reaches symbol n, or all c
        blocks = min(int(np.searchsorted(ends, n - pos)), c - 1) + 1
        size = min(int(ends[-1]), n - pos)
        y[pos:pos + size] = _flip_levels(ends[:blocks - 1], size,
                                         -1 if odd else 1)
        pos += size
        odd ^= blocks % 2 == 1
    return y


def _iid_levels(seed, n):
    """Fair +-1 symbols, those of ``rng.integers(0, 2)`` drawn in chunks.

    numpy draws those bits from 32-bit halves of the 64-bit draws, low half
    first, and keeps each half's top bit; so symbol 2i is bit 31 of draw i
    and symbol 2i + 1 its bit 63, read here from the raw draws.
    """
    bits = _rng(seed).bit_generator
    y = np.empty(n, dtype=np.int8)
    for a in range(0, n, CHUNK_SYMBOLS):
        c = min(CHUNK_SYMBOLS, n - a)
        draws = bits.random_raw(-(-c // 2))
        out = y[a:a + c]
        out[0::2] = (draws >> 30) & 2  # the bit as 0 or 2
        out[1::2] = (draws[:c // 2] >> 62) & 2
        out -= 1
    return y


def _word_levels(seed, n, fam):
    """Words drawn uniformly, one per period of m + x, bridges in between.

    Symbols take the antipodal levels of ``cyclo.signal_levels``, where a
    bridge's level is set by the last bit of the word before it and the
    first bit b of the word after it.  So a row of one period is set by its
    word w and that b: it is row 2 w + b of a table.  Rows are filled in
    chunks of at most CHUNK_SYMBOLS symbols, each drawing the indices of
    the words after its own.
    """
    listed, m = enumerate_codebook(fam).words, fam.m
    words = np.frombuffer(b"".join(listed), np.int8).reshape(len(listed), m)
    period = m + fam.x
    scale, offset, bridge = signal_levels(fam, "y")
    table = np.empty((len(words), 2, period), dtype=np.int8)
    table[:, :, :m] = scale * words[:, None, :] + offset
    table[:, :, m:] = np.array(bridge, dtype=np.int8)[words[:, -1], :, None]
    table = table.reshape(-1, period)
    rng = _rng(seed)
    rows = -(-n // period)
    y = np.empty((rows, period), dtype=np.int8)
    step = max(1, CHUNK_SYMBOLS // period)
    idx = rng.integers(0, len(words), size=1)  # word of the first row
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        idx = np.concatenate([idx[-1:],
                              rng.integers(0, len(words), size=r1 - r0)])
        key = 2 * idx[:-1]
        key += words[idx[1:], 0]
        np.take(table, key, axis=0, out=y[r0:r1])
    return y.reshape(-1)[:n]


def generate_stream(config):
    """Generate n_symbols of the +-1 (or three-level) waveform samples.

    Each kind fills one int8 array in chunks of at most CHUNK_SYMBOLS draws
    and stops at the last draw the stream uses; the draws are those of one
    Philox(seed) generator drawing whole arrays, so a seed gives the same
    stream at any chunk size.
    """
    fam = config.family
    n = config.n_symbols
    if fam.kind == "ax":
        return _ax_levels(config.seed, n, fam.x)
    if fam.kind == "sx":
        return _sx_levels(config.seed, n, fam.x)
    if fam.kind == "iid":
        return _iid_levels(config.seed, n)
    return _word_levels(config.seed, n, fam)


def _lag_sums(stream, k0, lags):
    """sum_a s[a] s[a+k] for k0 <= k < k0 + lags, exact, as float64.

    With u = s[:n-k0] and w = s[k0:] cut into rows of B symbols, a pair at
    lag k0 + j (j < B) lies in one row or in two adjacent rows.  Within a
    row its sum is the j-th diagonal of U^T W.  Across rows it pairs one of
    the last j columns of a U row with one of the first j columns of the
    next W row, so for any e >= lags - 1 it is the (j-e)-th diagonal of the
    e x e corner product U[:-1, B-e:]^T W[1:, :e].  e is lags - 1 rounded
    up to a multiple of 8, so at most B: with one OpenBLAS thread on a Xeon,
    float32 products of an odd width such as B - 1 took up to twice as long
    as at the next multiple of 8.  The pairs that reach past the last full
    row are added one lag at a time.
    Each product is in {-1, 0, 1} and a chunk of at most CHUNK_SYMBOLS
    symbols keeps every partial sum an integer below 2^24, so the float32
    matrix products are exact in any summation order.  Any B >= lags is
    exact; B is the least multiple of 16 that is, since narrower rows cost
    fewer products and 16 float32 values fill a vector register.
    """
    n = len(stream) - k0
    b = -(-lags // 16) * 16
    e = -(-(lags - 1) // 8) * 8
    rows = n // b
    step = max(1, CHUNK_SYMBOLS // b)
    c0 = np.zeros((b, b))
    c1 = np.zeros((e, e))
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        hi = min(r1 + 1, rows) * b  # one overlap row for pairs across rows
        w = stream[k0 + r0 * b:k0 + hi].astype(np.float32).reshape(-1, b)
        u = w if k0 == 0 else (
            stream[r0 * b:hi].astype(np.float32).reshape(-1, b))
        c0 += u[:r1 - r0].T @ w[:r1 - r0]
        c1 += u[:-1, b - e:].T @ w[1:, :e]
    out = np.empty(lags)
    tail = rows * b
    for j in range(lags):
        lo = max(0, tail - j)
        rest = np.dot(stream[lo:n - j].astype(np.int64),
                      stream[k0 + lo + j:k0 + n].astype(np.int64))
        out[j] = np.trace(c0, j) + np.trace(c1, j - e) + float(rest)
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
    """Autocorrelation of the per-phase mean profile.

    The per-phase sums are exact integers, taken over rows of
    PROFILE_FOLD periods and folded, plus the periods left over.
    """
    rows = len(stream) // period
    wide = rows - rows % PROFILE_FOLD
    sums = (stream[:wide * period].reshape(-1, PROFILE_FOLD * period)
            .sum(axis=0, dtype=np.int64).reshape(-1, period).sum(axis=0))
    sums += stream[wide * period:rows * period].reshape(-1, period).sum(
        axis=0, dtype=np.int64)
    prof = sums / rows
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        out[k] = float(np.mean(prof * np.roll(prof, -k % period)))
    return out


def default_kmax(family):
    """Lag cutoff ``estimate_psd`` uses unless told otherwise: the reach
    m + 2x - 1 of a fixed-length family's aperiodic part, else 64.  A
    stream must be longer than the cutoff."""
    if family is not None and family.m is not None:
        return family.m + 2 * family.x - 1
    return 64


def estimate_psd(stream, freqs, family=None, kmax=None, with_pulse=False):
    """Empirical continuous PSD via truncated cosine transform.

    The periodic part (per-phase mean profile for fixed-length families, the
    squared mean otherwise) is removed before the transform so spectral lines
    do not leak into the continuous estimate.
    """
    freqs = np.asarray(freqs, dtype=float)
    if kmax is None:
        kmax = default_kmax(family)
    r = estimate_autocorr(stream, kmax)
    if family is not None and family.m is not None:
        ra = r - _estimate_periodic(stream, family.m + family.x, kmax)
    else:
        ra = r - (np.float64(stream.sum(dtype=np.int64)) / len(stream)) ** 2
    return cosine_series(ra, freqs, with_pulse)


def deviation_report(estimated, theoretical, freqs):
    diff = np.abs(np.asarray(estimated) - np.asarray(theoretical))
    i = int(np.argmax(diff))
    return {
        "max_abs_deviation": float(diff[i]),
        "at_frequency": float(np.asarray(freqs)[i]),
        "mean_abs_deviation": float(diff.mean()),
        "points": int(len(diff)),
    }
