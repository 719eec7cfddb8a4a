"""Seeded Monte-Carlo stream generation and empirical spectra.

Streams are generated with a counter-based Philox generator so runs are
reproducible across platforms.  ``estimate_psd`` mirrors the analytical
pipeline: subtract the (estimated) periodic part of the autocorrelation,
then take a finite cosine transform of the remainder.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from math import inf

import numpy as np

from .codebook import ConstraintFamily, enumerate_codebook
from .cyclo import cosine_series, signal_levels


@dataclass
class StreamConfig:
    family: ConstraintFamily
    n_symbols: int
    seed: int = 0


# Most draws the pieces of stream generation in flight make together, and
# most symbols one chunk of a lag-product span casts to float32; bounds the
# scratch of each (a few arrays of 8 bytes a draw, 512 KB of float32
# stream), which then stays in cache.
CHUNK_SYMBOLS = 1 << 17
# Lags one pass of the Gram-matrix accumulation covers; bounds its B x B
# matrices when many lags are asked for.
LAG_BLOCK = 512
# Periods one row of the per-phase profile sum spans; wide rows make the
# column sums fast, and folding a row gives the per-phase sums.
PROFILE_FOLD = 1024
# Threads the chunk kernels run on: the CPUs this process may use.  Philox
# fills and BLAS products release the GIL, so the threads run in parallel.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# Whether BLAS runs each product on one thread, as the first of its
# thread-count variables that is set asks.  Only then are the lag sums split
# across the workers: a threaded BLAS already spreads each product over the
# CPUs, and two at once contend (257 lags of 10^7 symbols on a 2-CPU Xeon,
# threaded OpenBLAS: 82-100 ms in one span, 121-160 ms in two).
SERIAL_BLAS = next(filter(None, map(os.environ.get, (
    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"))), "") == "1"


@cache
def _pool(threads):
    # imported on first use, so importing ccpsd does not pay for them, and
    # on the calling thread: numpy imports numpy.random when it is first
    # used, and imported on a pool thread its 0.6 MB would stay in that
    # thread's malloc arena
    import numpy.random  # noqa: F401
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads, thread_name_prefix="ccpsd-oracle")


def _ahead(fn, items):
    """``fn(item)`` for each of ``items``, yielded in order, with at most
    WORKERS calls in flight.

    The items are taken WORKERS at a time: a pool of WORKERS - 1 threads
    makes all calls of a round but the first, which the calling thread
    makes.  Each thread that allocates keeps its own malloc arena, so the
    memory the calling thread freed is at hand only to its own calls.
    ``items`` is read on the calling thread after the results before the
    round are taken, so it can size an item from what the caller made of
    them.  With one worker the calls run on the calling thread and no
    thread starts.  When the caller stops early or a call raises, the calls
    not yet started are cancelled and the running ones waited for.
    """
    if WORKERS == 1:
        yield from map(fn, items)
        return
    items = iter(items)
    running = deque()
    try:
        for item in items:
            running.extend(_pool(WORKERS - 1).submit(fn, later)
                           for later in islice(items, WORKERS - 1))
            yield fn(item)
            while running:
                yield running.popleft().result()
    finally:
        if running:
            from concurrent.futures import wait
            for future in running:
                future.cancel()
            wait(running)


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


def _geometric_half(rng, size, shift=0, out=None):
    """``shift + rng.geometric(0.5, size)`` from the same draws, as int64,
    in the float64 array ``out`` if given.

    numpy draws a geometric with p >= 1/3 by search: X is the least X >= 1
    with U <= 1 - 2^-X for one uniform U per draw, and at p = 1/2 each
    partial sum 1 - 2^-X is exact.  With 1 - U = g 2^(E - 1023), 1 <= g < 2
    and E its biased IEEE exponent, that X is 1023 - E, or 1 where U = 0
    gives E = 1023.  E is read from the bits of 1 - U in place.
    """
    u = rng.random(size) if out is None else rng.random(out=out)
    np.subtract(1.0, u, out=u)
    e = u.view(np.int64)
    e >>= 52
    np.subtract(1023 + shift, e, out=e)
    return np.maximum(e, shift + 1, out=e)


def _chunk(n_left, mean, draws_left):
    """Draws for the next piece, of mean symbols a draw: enough for the
    expected n_left symbols (none if n_left < 0), at most a WORKERS-th of
    CHUNK_SYMBOLS, and at most 16 CHUNK_SYMBOLS / (WORKERS mean), which
    bounds the symbols of the pieces in flight when mean is large."""
    return min(max(1, CHUNK_SYMBOLS // WORKERS),
               max(1, int(16 * CHUNK_SYMBOLS / (WORKERS * mean))),
               draws_left, max(0, int(n_left / mean)) + 64)


def _stitched(n, piece, mean, cap):
    """n int8 symbols from ``piece(first, out)``, the symbols of len(out)
    draws from draw ``first`` on, with a float64 of scratch a draw in
    ``out``.  Pieces are sized by ``_chunk`` from the symbols still
    expected, never cross a multiple of cap draws, have their scratch made
    on the calling thread (see ``_ahead``) and are copied in order."""
    y = np.empty(n, dtype=np.int8)
    pos = 0  # symbols set so far
    used = 0  # draws of the pieces copied so far

    def pieces():
        drawn = 0  # draws of the pieces handed out
        while True:
            c = _chunk(n - pos - mean * (drawn - used), mean,
                       cap - drawn % cap)
            yield drawn, np.empty(c)
            drawn += c

    for c, symbols in _ahead(lambda item: (len(item[1]), piece(*item)),
                             pieces()):
        size = min(len(symbols), n - pos)
        y[pos:pos + size] = symbols[:size]
        del symbols  # freed before the next round's pieces allocate theirs
        pos += size
        used += c
        if pos == n:
            return y


def _ax_piece(seed, x, runs, first, out):
    """Symbols of the len(out) runs from run ``first`` on, their ends
    drawn in ``out``.  A batch of ``runs`` runs takes its short-or-long
    draws and then its tails, so batch b starts at draw 2 b runs; a piece
    does not cross a batch."""
    short_at = first + first // runs * runs
    # a uniform (draw >> 11) 2^-53 is >= 1/2 when the draw's top bit is
    # set: then the run is long, 1 + x + geometric
    long = _rng(seed, short_at).bit_generator.random_raw(len(out))
    long >>= 63
    ends = _geometric_half(_rng(seed, short_at + runs), len(out), x, out)
    ends *= long.view(np.int64)
    ends += 1
    ends[0] -= 1  # the cumulative sums become end positions
    np.cumsum(ends, out=ends)
    symbols = np.full(int(ends[-1]) + 1, -1, dtype=np.int8)
    symbols[ends] = 1
    return symbols


def _ax_levels(seed, n, x):
    """Runs of one with prob 1/2, else x+1 zeros and a geometric tail, in
    batches of runs of which one nearly always covers n."""
    runs = int(n / 1.4) + 2 * x + 64
    return _stitched(n, partial(_ax_piece, seed, x, runs), (x + 4) / 2, runs)


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


def _sx_piece(seed, x, first, out):
    """Symbols of the len(out) blocks from block ``first`` on, a one-run at
    even blocks; their ends are drawn in ``out``."""
    ends = _geometric_half(_rng(seed, first), len(out), x, out)
    np.cumsum(ends, out=ends)
    return _flip_levels(ends[:-1], int(ends[-1]), -1 if first % 2 else 1)


def _sx_levels(seed, n, x):
    """Alternating one-runs and zero-runs, each of length x + geometric:
    block i takes draw i, unbatched, and is a one-run when i is even."""
    return _stitched(n, partial(_sx_piece, seed, x), x + 2, inf)


def _iid_piece(seed, first, out):
    """Symbols of the len(out) draws from draw ``first`` on, two a draw,
    in the bytes of ``out``.

    numpy's ``rng.integers(0, 2)`` draws its bits from 32-bit halves of
    the 64-bit draws, low half first, and keeps each half's top bit; so
    symbol 2i is bit 31 of draw i and symbol 2i + 1 its bit 63, read here
    from the raw draws.
    """
    draws = _rng(seed, first).bit_generator.random_raw(len(out))
    symbols = out.view(np.int8)[:2 * len(out)]
    symbols[0::2] = (draws >> 30) & 2  # the bit as 0 or 2
    symbols[1::2] = (draws >> 62) & 2
    symbols -= 1
    return symbols


def _iid_levels(seed, n):
    """Fair +-1 symbols, those of ``rng.integers(0, 2)``, in pieces of
    CHUNK_SYMBOLS // (2 WORKERS) draws."""
    return _stitched(n, partial(_iid_piece, seed), 2,
                     max(1, CHUNK_SYMBOLS // (2 * WORKERS)))


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

    An ax, sx or iid stream is drawn in pieces on the workers, which
    together hold at most CHUNK_SYMBOLS draws in flight, and ``_stitched``
    copies their symbols into one int8 array in order, stopping near the
    last draw the stream uses; a finite family's words are drawn on the
    calling thread.  The draws are those of one Philox(seed) generator
    drawing whole arrays, so a seed gives the same stream at any piece size
    and on any number of workers.
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


def _padded(stream, lo, hi):
    """``stream[lo:hi]``, zero where it reaches past the end."""
    if hi <= len(stream):
        return stream[lo:hi]
    out = np.zeros(hi - lo, dtype=stream.dtype)
    out[:len(stream) - lo] = stream[lo:]
    return out


def _lag_sums(stream, k0, lags):
    """sum_a s[a] s[a+k] for k0 <= k < k0 + lags, exact, as float64.

    With u = s[:n-k0] and w = s[k0:], zero past its end, cut into rows of
    B symbols, a pair at lag k0 + j (j < B) lies in one row or in two
    adjacent rows.  Within a row its sum is the j-th diagonal of U^T W.
    Across rows it pairs one of the last j columns of a U row with one of
    the first j columns of the next W row, so for any e >= lags - 1 it lies
    on the same diagonal once the e x e corner product U[:-1, B-e:]^T W[1:,
    :e] is set beside the last e rows of U^T W.  The diagonals of that
    B x (B + e) matrix are summed in place for each chunk of rows.  e is
    lags - 1 rounded up to a multiple of 8, so at most B: with one OpenBLAS
    thread on a Xeon, float32 products of an odd width such as B - 1 took
    up to twice as long as at the next multiple of 8.
    Each product is in {-1, 0, 1} and a chunk of at most CHUNK_SYMBOLS
    symbols keeps every diagonal sum an integer below 2^24, so the float32
    matrix products are exact in any summation order.  Any B >= lags is
    exact; B is the least multiple of 16 that is, since narrower rows cost
    fewer products and 16 float32 values fill a vector register.
    With SERIAL_BLAS the rows are split into WORKERS contiguous spans,
    each summed on a worker, and the spans' integer sums are added in
    order.  Rows of 16 symbols are one span, summed on the calling thread:
    their products are too small for a second thread to pay (six lags of
    10^7 symbols on a 2-CPU Xeon: 11 ms on one thread, 17 ms on two).
    """
    n = len(stream) - k0
    b = -(-lags // 16) * 16
    e = -(-(lags - 1) // 8) * 8
    rows = -(-n // b)
    step = max(1, CHUNK_SYMBOLS // b)  # rows per chunk

    def span(task):
        r0, r1, flat, wide = task
        out = np.zeros(lags)
        prod = flat[:b * (b + e)].reshape(b, b + e)
        diagonals = flat.reshape(b, b + e + 1)[:, :lags]  # prod[t, t + j]
        for r in range(r0, r1, step):
            top = min(r + step, r1)
            w = wide[:top - r + 1]  # and the row after, for pairs across rows
            w[...] = _padded(stream, k0 + r * b, k0 + (top + 1) * b).reshape(
                -1, b)
            u = w[:-1] if k0 == 0 else (
                _padded(stream, r * b, top * b).reshape(-1, b)
                .astype(np.float32))
            np.matmul(u.T, w[:-1], out=prod[:, :b])
            np.matmul(u[:, b - e:].T, w[1:, :e], out=prod[b - e:, b:])
            out += diagonals.sum(axis=0)
        return out

    spans = WORKERS if SERIAL_BLAS and b > 16 else 1
    cuts = [rows * i // spans for i in range(spans + 1)]
    # the spans' scratch is made here: the calling thread's freed memory is
    # at hand, where each worker thread's would be new
    return sum(_ahead(span, [
        (r0, r1, np.zeros(b * (b + e + 1), dtype=np.float32),
         np.empty((step + 1, b), dtype=np.float32))
        for r0, r1 in zip(cuts, cuts[1:])]))


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
    PROFILE_FOLD periods and folded, plus the periods left over.  A column
    sum adds one symbol of each row, at most 1 in size, so it fits an int32.
    """
    rows = len(stream) // period
    wide = rows - rows % PROFILE_FOLD
    sums = (stream[:wide * period].reshape(-1, PROFILE_FOLD * period)
            .sum(axis=0, dtype=np.int32).reshape(-1, period).sum(axis=0))
    sums += stream[wide * period:rows * period].reshape(-1, period).sum(
        axis=0, dtype=np.int32)
    prof = sums / rows
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        out[k] = float(np.mean(prof * np.roll(prof, -k % period)))
    return out


def _total(stream):
    """Exact sum of a stream of values in {-1, 0, 1}: int32 sums of blocks
    of 2^30 symbols, which cannot overflow, added as Python ints."""
    block = 1 << 30
    return sum(int(stream[i:i + block].sum(dtype=np.int32))
               for i in range(0, len(stream), block))


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
        ra = r - (np.float64(_total(stream)) / len(stream)) ** 2
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
