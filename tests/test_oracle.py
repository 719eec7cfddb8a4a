import hashlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from brute_force import contains_forbidden, repeat_sx_levels, word_array
from ccpsd import oracle
from ccpsd.codebook import (ConstraintFamily, enumerate_codebook,
                            forbidden_patterns)
from ccpsd.oracle import (
    StreamConfig,
    estimate_autocorr,
    estimate_psd,
    generate_stream,
)
from ccpsd.presets import continuous_psd
from ccpsd.spectrum import default_grid


def cfg(kind, x, m=None, n=200_000, seed=7):
    return StreamConfig(ConstraintFamily(kind, x, m), n_symbols=n, seed=seed)


def estimate_autocorr_per_lag(stream, kmax):
    """Reference: one float64 dot product over the whole stream per lag."""
    v = stream.astype(np.float64)
    n = len(v)
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        out[k] = float(np.dot(v[: n - k], v[k:])) / (n - k)
    return out


def ax_batch_runs(n, x):
    return int(n / 1.4) + 2 * x + 64


def sx_batch_blocks(n, x):
    return int(n / (x + 1.5)) + 64


def generate_stream_reference(config, ax_runs=ax_batch_runs,
                              sx_blocks=sx_batch_blocks):
    """Reference: every draw of a stream made as one whole array.

    Whole batches of runs (ax), blocks (sx) or word indices are drawn from
    one Philox(seed) generator, with further batches while the batch falls
    short of n_symbols, and the stream is cut from them.
    """
    fam = config.family
    n = config.n_symbols
    rng = np.random.Generator(np.random.Philox(config.seed))
    x = fam.x
    if fam.kind == "ax":
        n_runs = ax_runs(n, x)
        short = rng.random(n_runs) < 0.5
        runs = np.where(short, 1, x + 1 + rng.geometric(0.5, size=n_runs))
        while runs.sum() < n:
            extra_short = rng.random(n_runs) < 0.5
            extra = np.where(extra_short, 1, x + 1 + rng.geometric(0.5, n_runs))
            runs = np.concatenate([runs, extra])
        ones = np.cumsum(runs) - 1
        y = -np.ones(n, dtype=np.int8)
        y[ones[ones < n]] = 1
        return y
    if fam.kind == "sx":
        n_blocks = sx_blocks(n, x)
        lens = x + rng.geometric(0.5, size=n_blocks)
        while lens.sum() < n:
            lens = np.concatenate([lens, x + rng.geometric(0.5, size=n_blocks)])
        signs = np.empty(len(lens), dtype=np.int8)
        signs[0::2] = 1
        signs[1::2] = -1
        return np.repeat(signs, lens)[:n]
    if fam.kind == "iid":
        return (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
    cb = enumerate_codebook(fam)
    words = word_array(cb.words, np.int8)
    m = fam.m
    period = m + x
    n_words = (n // period) + 2
    w = words[rng.integers(0, len(cb.words), size=n_words)]
    out = np.zeros((n_words - 1, period), dtype=np.int8)
    out[:, :m] = 2 * w[:-1] - 1
    if fam.bridging != "z_symbols":
        both = (w[:-1, -1] == 1) & (w[1:, 0] == 1)
        out[:, m:] = np.where(both[:, None], 1, -1)
    return out.reshape(-1)[:n]


def flip_levels_per_symbol(flips, size, level):
    """Reference: each symbol's sign from the flips at or before it."""
    flips = set(flips)
    out = np.empty(size, dtype=np.int8)
    sign = level
    for i in range(size):
        if i in flips:
            sign = -sign
        out[i] = sign
    return out


def estimate_psd_per_lag(stream, freqs, family, kmax):
    """Reference: estimate_psd on float64 copies of the whole stream."""
    v = stream.astype(np.float64)
    r = estimate_autocorr_per_lag(stream, kmax)
    if family.m is not None:
        period = family.m + family.x
        n = (len(v) // period) * period
        prof = v[:n].reshape(-1, period).mean(axis=0)
        rp = np.array([float(np.mean(prof * np.roll(prof, -k % period)))
                       for k in range(kmax + 1)])
        ra = r - rp
    else:
        ra = r - np.mean(v) ** 2
    out = np.full(len(freqs), ra[0])
    for k in range(1, kmax + 1):
        out += 2.0 * ra[k] * np.cos(2 * np.pi * freqs * k)
    return out


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = generate_stream(cfg("ax", 2))
        b = generate_stream(cfg("ax", 2))
        assert np.array_equal(a, b)
        c = generate_stream(cfg("ax", 2, seed=8))
        assert not np.array_equal(a, c)

    def test_levels_are_antipodal(self):
        for kind, x, m in [("ax", 1, None), ("sx", 2, None), ("iid", 0, None),
                           ("aloco", 1, 4)]:
            s = generate_stream(cfg(kind, x, m))
            assert set(np.unique(s)) <= {-1, 1}

    def test_three_level_stream(self):
        s = generate_stream(cfg("loco", 1, 4))
        assert set(np.unique(s)) == {-1, 0, 1}

    @pytest.mark.parametrize("kind,x", [("ax", 1), ("ax", 3), ("sx", 1), ("sx", 3)])
    def test_no_forbidden_patterns(self, kind, x):
        fam = ConstraintFamily(kind, x)
        s = generate_stream(cfg(kind, x, n=50_000))
        bits = tuple(int(v > 0) for v in s)
        for pat in forbidden_patterns(fam):
            assert not contains_forbidden(bits, [pat]), pat

    def test_loco_bridges_are_zero(self):
        m, x = 4, 1
        s = generate_stream(cfg("loco", x, m, n=50_000))
        period = m + x
        for phase in range(m, period):
            assert np.all(s[phase::period] == 0)

    def test_run_length_constraint_on_sx(self):
        # every run must be at least x+1 long
        x = 2
        s = generate_stream(cfg("sx", x, n=50_000))
        changes = np.flatnonzero(np.diff(s))
        runs = np.diff(changes)
        assert runs.min() >= x + 1


# ax and sx take x >= 1 (ConstraintFamily rejects x = 0)
IDENTITY_FAMILIES = (
    [("ax", x, None) for x in (1, 2, 5, 20)]
    + [("sx", x, None) for x in (1, 2, 5, 20)]
    + [("iid", 0, None)]
    + [(kind, x, m) for kind in ("aloco", "loco", "caloco", "cloco")
       for x in (1, 2) for m in (2, 5)])


def assert_same_stream(config, **batches):
    got = generate_stream(config)
    want = generate_stream_reference(config, **batches)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), config


def search_geometric_half(u):
    """numpy's search for Geometric(1/2), one uniform at a time."""
    x, total, prod = 1, 0.5, 0.5
    while u > total:
        prod *= 0.5
        total += prod
        x += 1
    return x


class FixedUniforms:
    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def random(self, size):
        assert size == len(self.values)
        return self.values.copy()


@pytest.fixture(params=[1, 3], ids=["workers1", "workers3"])
def workers(request, monkeypatch):
    """Run a test with oracle.WORKERS set to one and to three, the lag sums
    split across them as with a one-thread BLAS."""
    monkeypatch.setattr(oracle, "WORKERS", request.param)
    monkeypatch.setattr(oracle, "SERIAL_BLAS", True)
    return request.param


class ChunkedStreams:
    """Chunked streams equal the ones drawn as whole arrays."""

    @pytest.mark.parametrize("kind,x,m", IDENTITY_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 63, 1000, 12_345])
    def test_short_streams(self, kind, x, m, n):
        for seed in (0, 1, 7, 101):
            assert_same_stream(cfg(kind, x, m, n=n, seed=seed))

    @pytest.mark.parametrize("kind,x,m", IDENTITY_FAMILIES)
    def test_small_chunks(self, kind, x, m, monkeypatch):
        monkeypatch.setattr(oracle, "CHUNK_SYMBOLS", 1000)
        for n in (1, 999, 1000, 1001, 3001, 54_321):
            for seed in (0, 5):
                assert_same_stream(cfg(kind, x, m, n=n, seed=seed))

    @pytest.mark.parametrize("kind,x", [("ax", 1), ("ax", 2), ("ax", 20),
                                        ("sx", 1), ("sx", 5), ("sx", 20)])
    @pytest.mark.parametrize("chunk", [7, 1 << 20])
    def test_top_up_batches(self, kind, x, chunk, monkeypatch):
        # three runs or blocks of at most x + 54 symbols each cannot reach n,
        # so each stream needs many top-up batches
        def three(n, x):
            return 3
        n = 3 * (x + 54) + 1000
        monkeypatch.setattr(oracle, "_ax_batch_runs", three)
        monkeypatch.setattr(oracle, "CHUNK_SYMBOLS", chunk)
        for seed in (0, 2, 9):
            assert_same_stream(cfg(kind, x, n=n, seed=seed),
                               ax_runs=three, sx_blocks=three)

    # chunks of 1000 draws end at symbols that are not multiples of 64
    @pytest.mark.parametrize("chunk", [oracle.CHUNK_SYMBOLS, 1000])
    @pytest.mark.parametrize("x", range(1, 7))
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 12_345, 1_000_000])
    def test_sx_parity_equals_repeated_signs(self, x, n, chunk, monkeypatch):
        monkeypatch.setattr(oracle, "CHUNK_SYMBOLS", chunk)
        for seed in (1, 102):
            assert np.array_equal(oracle._sx_levels(seed, n, x),
                                  repeat_sx_levels(seed, n, x))


class TestChunkedGeneration(ChunkedStreams):
    @pytest.mark.parametrize("kind,x,m", IDENTITY_FAMILIES)
    def test_chunk_lengths(self, kind, x, m):
        c = oracle.CHUNK_SYMBOLS
        for n in (c - 1, c, 2 * c + 1):
            assert_same_stream(cfg(kind, x, m, n=n, seed=3))

    @pytest.mark.parametrize("kind,x,m", [("ax", 1, None), ("ax", 5, None),
                                          ("sx", 1, None), ("iid", 0, None),
                                          ("aloco", 1, 4), ("cloco", 2, 5)])
    def test_million_symbols(self, kind, x, m):
        assert_same_stream(cfg(kind, x, m, n=1_000_000, seed=11))


    @pytest.mark.parametrize("size", [1, 63, 64, 65, 128, 129, 1000])
    def test_flip_levels(self, size):
        rng = np.random.default_rng(size)
        cases = [[], [0], [63, 64], [size // 2, size // 2 + 1],
                 [0, 1, 2, 62, 63, 64, 65, 127, 128],
                 sorted(rng.choice(size, size // 3, replace=False))]
        for flips in cases:
            flips = [i for i in flips if i < size]
            for level in (1, -1):
                got = oracle._flip_levels(np.array(flips, dtype=np.int64),
                                          size, level)
                assert got.dtype == np.int8
                assert np.array_equal(
                    got, flip_levels_per_symbol(flips, size, level)), flips

    @pytest.mark.parametrize("n", [1, oracle.CHUNK_SYMBOLS - 1,
                                   oracle.CHUNK_SYMBOLS + 1, 10_000_000])
    def test_iid_bits_are_those_of_integers(self, n):
        # the raw-draw bits equal numpy's integers(0, 2) drawn as one array
        want = np.random.Generator(np.random.Philox(8)).integers(0, 2, n)
        want *= 2
        want -= 1
        assert np.array_equal(generate_stream(cfg("iid", 0, n=n, seed=8)),
                              want)

    def test_geometric_inversion(self):
        rng = np.random.Generator(np.random.Philox(4))
        ref = np.random.Generator(np.random.Philox(4))
        for _ in range(10):  # 10^7 draws in all
            got = oracle._geometric_half(rng, 1_000_000)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref.geometric(0.5, 1_000_000))
        assert np.array_equal(oracle._geometric_half(rng, 5, 3),
                              3 + ref.geometric(0.5, 5))

    def test_geometric_inversion_at_edges(self):
        tiny = 2.0 ** -53
        u = [0.0, tiny, 0.25, 0.5, 0.5 + tiny, 0.75, 0.875 - tiny, 0.875,
             1 - 2.0 ** -20, 1 - 2 * tiny, 1 - tiny]
        got = oracle._geometric_half(FixedUniforms(u), len(u))
        assert got.tolist() == [search_geometric_half(v) for v in u]
        assert got[0] == 1 and got[-1] == 53

    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 5, 7, 8, 1001])
    def test_positioned_generator(self, offset):
        whole = np.random.Generator(np.random.Philox(6)).random(offset + 9)
        assert np.array_equal(oracle._rng(6, offset).random(9), whole[offset:])


@pytest.mark.usefixtures("workers")
class TestChunkedGenerationOnWorkers(ChunkedStreams):
    """The same streams drawn in pieces on one and on three workers."""


# sha256 of the int8 streams of the acceptance suite's Monte-Carlo cases,
# and of aloco and loco at x=2 m=6, at 10^6 symbols, at the case seed and at
# the case seed + 101, as drawn before generation was chunked (the finite
# families at x=2 and the self-clocked ones as drawn before their bridge
# levels came from ``cyclo.signal_levels``).
MC_STREAM_SHA256 = {
    ("ax", 1, None, 1): "6e0faf6f7d58c16ac20f5b8856e37a4781756f7391e8c61c4b2dff90d134041a",
    ("ax", 2, None, 1): "465fc0470133b270d3aa0c69eb3cf874a3eb900f536a982c7a33943067875d5e",
    ("ax", 3, None, 1): "c8266004d11dcda5bbeb31dd93dd2936bf770ef8dbbadc7c28200007cc1b829e",
    ("ax", 4, None, 1): "50dda82d22b1ef233a956cb2d4e6db7f2d6eac1ee93c201ab57cb61fcb4a826b",
    ("ax", 5, None, 2): "4074932aed13d2860803c14fca4905924899a633d92bc9a8343e22c8c62a8102",
    ("sx", 1, None, 1): "e9e72074637619a2cc53bde03f777c78476c639c3157d221ffeca37b890261f7",
    ("sx", 2, None, 1): "a04348dd4bfcceaaf7ab740ea01075465c5bc78c4af2e08b458350fcebbaff99",
    ("sx", 3, None, 1): "707f3764fc03aab5493f8ab311220d6e6723cbeaf62f48107317be15ba218cc1",
    ("sx", 4, None, 1): "6432c368e9e7c763a9e9d6614e43a3c9d94e4b017b8640d3334d12c676c41f29",
    ("sx", 5, None, 1): "8fdf4f7c813583bdda4b2ce580bd407dba5356fe32f28ccffde7636d3b760d00",
    ("aloco", 1, 4, 1): "ed0fc442759c3632735547378f9a949533dcb87ca6acbf17bc80175bddab6660",
    ("loco", 1, 4, 1): "c292665df932c756cb5fd8489896950c1b39f71c81ee776c7bee845ae953499d",
    ("aloco", 2, 6, 1): "fb7b6257c8cfa3be7636d1ae54327c646cd26a2d4e7cda5e1241c16c7d6e8782",
    ("loco", 2, 6, 1): "ac51342b83bd672ad7c80775eb3ec41813b5163eddc2047235eb38ca1413e84d",
    ("caloco", 1, 4, 1): "6a1300a3785aa0daf012a011e8cf405189433f7c53708a43f35dd93cc281f36f",
    ("caloco", 2, 6, 1): "3d86163ede4e1356baa39a30040d9065bc27df67e58933695812f32af1e79756",
    ("cloco", 1, 4, 1): "fc9b74cfedebbb44ad9116bb44ca2ee1c8834bd5b78722056fb0a9c2430acf86",
    ("cloco", 2, 6, 1): "6bcfb5e8ef8a373c1b16283d0c47cf35942c79f4c8de29630b41f9c3cdb87061",
    ("iid", 0, None, 1): "2bf88173788193847b93fc8ddf6e480321e919e5fbe73f05d201f409a63d301f",
    ("ax", 1, None, 102): "cf2accca29f75b55d1ba1c94c7dd9165bd82c01f9665dbc27ad21dccdf0fe788",
    ("ax", 2, None, 102): "c05318ba340836c84593312ddf15e28727be0f9b7ad0eaec559e3bcce84f51b7",
    ("ax", 3, None, 102): "9d648d5689c60c7929c2f9ca5395daf6ab37a22915083c4155ad1a8daba297e8",
    ("ax", 4, None, 102): "322ebdd4e04fc8a2756099bb690490d1f0106036d8943b9f4206cc88efe0a398",
    ("ax", 5, None, 103): "075ad9b7965f06bab1638b90efa7fad015b4daef5dde834019f42da571077743",
    ("sx", 1, None, 102): "d7aa10004a5892c8d14d74b46f23e63e6ed25008bea9485cd6d40ef40f647050",
    ("sx", 2, None, 102): "c9015958bb8b31fb980f015bdffb81f6c6bb3b384bfd38f0a01368bdf0f4039f",
    ("sx", 3, None, 102): "a4cade378dfa0198c4399cdfe6172387fe99dabe29ee3b271ad4463f28311cb7",
    ("sx", 4, None, 102): "ef9b05a366b5bd0a575f7e690e46c5f63bf416fb318fc5a7b4b10e6f0213b7ce",
    ("sx", 5, None, 102): "9f6ba88db6a38dd9e60fbdd47aaf1a69c7db44652ec9f2d042be558ab5136160",
    ("aloco", 1, 4, 102): "9330f92354c0aaff62f9e4ab59c562aa4a4d24227fe5bdaa063d17517ccb942f",
    ("loco", 1, 4, 102): "bb6e8210f8b4d2d813b7176a24ae5fb0cb8bc0f8aeda25a6901a1b3e84d730d0",
    ("aloco", 2, 6, 102): "86a91e6f7f1138935af000ca191d4a6a967bd283f3ea93f74f6422c60a3b2ee3",
    ("loco", 2, 6, 102): "8e907670590ff93bf27a8776820e424e46978d58b326b437c9d527e09fdf87e3",
    ("caloco", 1, 4, 102): "1485ea4428fe55e79c69a77d323c889830dd9a64eaafe81802d91ba9c724b17c",
    ("caloco", 2, 6, 102): "6e57f33a8d29557346934ff0393a56b8e23f80392b62027f8a72058b42e45c91",
    ("cloco", 1, 4, 102): "6e7b4e9522c4764c81952dfbf8a0f4cb92ade2e5bbcb59afe2e62309bbd6c72c",
    ("cloco", 2, 6, 102): "49e9052d271d7ccfc5cab44187f027b057a2706502a1e0662060f999ea41a540",
    ("iid", 0, None, 102): "dbb93568b0c15245d65e802885005406968d1500725f42fa95164bf5c765ff73",
}


def assert_pinned(kind, x, m, seed):
    s = generate_stream(cfg(kind, x, m, n=1_000_000, seed=seed))
    assert s.dtype == np.int8
    digest = hashlib.sha256(s.tobytes()).hexdigest()
    assert digest == MC_STREAM_SHA256[(kind, x, m, seed)]


@pytest.mark.parametrize("kind,x,m,seed", list(MC_STREAM_SHA256))
def test_monte_carlo_streams_are_pinned(kind, x, m, seed):
    assert_pinned(kind, x, m, seed)


@pytest.mark.parametrize("kind,x,m,seed", list(MC_STREAM_SHA256))
def test_pinned_streams_on_workers(kind, x, m, seed, workers):
    assert_pinned(kind, x, m, seed)


@pytest.mark.parametrize("kind,x,m", [("ax", 1, None), ("sx", 1, None),
                                      ("iid", 0, None), ("aloco", 1, 4)])
def test_generation_memory_is_output_plus_one_chunk(kind, x, m, monkeypatch):
    # whole-array draws peak at 4.8 n (sx) to 16 n (ax) bytes
    monkeypatch.setattr(oracle, "CHUNK_SYMBOLS", 1 << 14)
    n = 1_000_000
    config = cfg(kind, x, m, n=n, seed=1)
    generate_stream(cfg(kind, x, m, n=10, seed=1))  # cached codebook
    tracemalloc.start()
    try:
        generate_stream(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n + 64 * oracle.CHUNK_SYMBOLS, f"peak {peak} bytes"


@pytest.mark.parametrize("x", [200, 2000])
def test_sx_memory_at_long_blocks(x, workers):
    # the pieces in flight hold at most 16 CHUNK_SYMBOLS / (x + 2) blocks
    # together, so their scratch does not grow with x; uncapped, one piece
    # spans the stream
    n = 10**7
    tracemalloc.start()
    try:
        oracle._sx_levels(1, n, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * n, f"{peak / n:.2f} bytes per symbol"


def no_pool(threads):
    raise AssertionError("thread pool used")


class TestWorkers:
    """``_ahead`` runs its calls on WORKERS threads, yielding in order."""

    def test_results_in_order_and_calls_in_flight(self, workers):
        lock = threading.Lock()
        flight = [0, 0]  # calls running now, most at once

        def call(i):
            with lock:
                flight[0] += 1
                flight[1] = max(flight)
            time.sleep(0.002)
            with lock:
                flight[0] -= 1
            return i * i

        assert list(oracle._ahead(call, range(20))) == [
            i * i for i in range(20)]
        assert flight[0] == 0 and flight[1] <= workers

    def test_error_of_a_call_reaches_the_caller(self, workers):
        # with three workers, item 4 is made on a pool thread
        def call(i):
            if i == 4:
                raise ZeroDivisionError("item 4")
            return i

        with pytest.raises(ZeroDivisionError, match="item 4"):
            list(oracle._ahead(call, range(10)))

    def test_stopping_early_waits_for_running_calls(self, workers):
        started, finished = [], []

        def call(i):
            started.append(i)
            time.sleep(0.01)
            finished.append(i)
            return i

        results = oracle._ahead(call, range(100))
        assert next(results) == 0
        results.close()
        assert sorted(finished) == sorted(started)
        assert len(started) <= workers

    def test_stream_error_reaches_the_caller(self, workers, monkeypatch):
        def failing(seed, x, first, out):
            raise MemoryError(f"piece at block {first}")

        monkeypatch.setattr(oracle, "_sx_piece", failing)
        with pytest.raises(MemoryError, match="piece at block 0"):
            generate_stream(cfg("sx", 1, n=10**6))

    def test_more_workers_than_cpus_with_short_switches(self, monkeypatch):
        # pieces stitched out of order or slices written twice would change
        # a stream; lag spans summed twice or left out would change a sum
        monkeypatch.setattr(oracle, "WORKERS", 8)
        monkeypatch.setattr(oracle, "SERIAL_BLAS", True)
        monkeypatch.setattr(oracle, "CHUNK_SYMBOLS", 4096)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind, x in [("ax", 2), ("sx", 3), ("iid", 0)]:
                config = cfg(kind, x, n=100_000)
                s = generate_stream(config)
                assert np.array_equal(s, generate_stream_reference(config))
                assert np.array_equal(estimate_autocorr(s, 40),
                                      estimate_autocorr_per_lag(s, 40))
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(oracle, "WORKERS", 1)
        monkeypatch.setattr(oracle, "_pool", no_pool)
        threads = threading.active_count()
        for kind, x in [("ax", 1), ("sx", 1), ("iid", 0)]:
            s = generate_stream(cfg(kind, x, n=300_000))
            estimate_autocorr(s, 64)
            assert threading.active_count() == threads

    @pytest.mark.parametrize("kmax", [5, 64])
    def test_threaded_blas_sums_lags_on_the_calling_thread(self, kmax,
                                                           monkeypatch):
        s = generate_stream(cfg("sx", 2, n=100_003))
        monkeypatch.setattr(oracle, "WORKERS", 3)
        monkeypatch.setattr(oracle, "SERIAL_BLAS", False)
        monkeypatch.setattr(oracle, "_pool", no_pool)
        assert np.array_equal(estimate_autocorr(s, kmax),
                              estimate_autocorr_per_lag(s, kmax))


class TestEstimation:
    def test_autocorr_lag_zero_unity(self):
        s = generate_stream(cfg("ax", 1))
        r = estimate_autocorr(s, 4)
        assert abs(r[0] - 1.0) < 1e-12

    def test_iid_spectrum_flat(self):
        s = generate_stream(cfg("iid", 0, n=1_000_000))
        freqs = default_grid(128)
        est = estimate_psd(s, freqs, family=ConstraintFamily("iid", 0), kmax=64)
        assert np.max(np.abs(est - 1.0)) < 0.05

    def test_finite_family_converges(self):
        fam = ConstraintFamily("aloco", 1, 4)
        s = generate_stream(StreamConfig(fam, n_symbols=1_000_000, seed=3))
        freqs = default_grid(128)
        est = estimate_psd(s, freqs, family=fam)
        theory = continuous_psd(fam, freqs, with_pulse=False)
        assert np.max(np.abs(est - theory)) < 0.03

    def test_infinite_family_converges(self):
        fam = ConstraintFamily("ax", 1)
        s = generate_stream(StreamConfig(fam, n_symbols=1_000_000, seed=3))
        freqs = default_grid(128)
        est = estimate_psd(s, freqs, family=fam, kmax=48)
        theory = continuous_psd(fam, freqs, with_pulse=False)
        assert np.max(np.abs(est - theory)) < 0.05


ROW_EDGES = [(n, kmax) for n in (1, 2, 15, 16, 17, 33, 50, 63, 64, 65, 640,
                                  1000, 12_345)
             for kmax in (0, 1, 5, 15, 16, 31, 32, 47, 70) if kmax < n]


class TestBlockedLagProducts:
    """The blocked Gram-matrix lag sums equal one dot product per lag."""

    @pytest.mark.parametrize("kind,x,m", [("ax", 2, None), ("sx", 3, None),
                                          ("iid", 0, None), ("aloco", 1, 4),
                                          ("loco", 1, 4)])
    def test_equals_per_lag(self, kind, x, m):
        s = generate_stream(cfg(kind, x, m, n=100_003))
        for kmax in (0, 9, 64, 130):
            assert np.array_equal(estimate_autocorr(s, kmax),
                                  estimate_autocorr_per_lag(s, kmax))

    # rows of the least multiple of 16 symbols that holds the kmax + 1 lags,
    # and cross-row corners as wide as the rows (kmax 15, 31, 47) or narrower
    @pytest.mark.parametrize("n,kmax", ROW_EDGES)
    def test_row_edges(self, n, kmax):
        s = np.random.default_rng(n).integers(-1, 2, size=n).astype(np.int8)
        assert np.array_equal(estimate_autocorr(s, kmax),
                              estimate_autocorr_per_lag(s, kmax))

    # spans of the rows on each worker, fewer rows than workers among them
    # (n = 17 or 33 at kmax 16 to 31, n = 50 to 65 at kmax 47)
    @pytest.mark.parametrize("n,kmax", ROW_EDGES)
    def test_row_edges_on_workers(self, n, kmax, workers):
        self.test_row_edges(n, kmax)

    def test_chunk_and_lag_block_boundaries(self, monkeypatch):
        s = generate_stream(cfg("loco", 1, 4, n=50_000))
        monkeypatch.setattr(oracle, "CHUNK_SYMBOLS", 1000)
        for kmax in (0, 5, 64, 200):
            assert np.array_equal(estimate_autocorr(s, kmax),
                                  estimate_autocorr_per_lag(s, kmax))
        monkeypatch.setattr(oracle, "LAG_BLOCK", 37)
        assert np.array_equal(estimate_autocorr(s, 200),
                              estimate_autocorr_per_lag(s, 200))

    @pytest.mark.parametrize("kind,x,m,kmax", [("aloco", 1, 4, 5),
                                               ("ax", 1, None, 48)])
    def test_psd_bit_identical(self, kind, x, m, kmax):
        fam = ConstraintFamily(kind, x, m)
        s = generate_stream(StreamConfig(fam, n_symbols=300_000, seed=5))
        freqs = default_grid(64)
        assert np.array_equal(estimate_psd(s, freqs, family=fam, kmax=kmax),
                              estimate_psd_per_lag(s, freqs, fam, kmax))

    @pytest.mark.parametrize("period", [5, 6, 13])
    def test_periodic_part_equals_per_row_sum(self, period):
        # lengths around whole folds of PROFILE_FOLD periods, and between
        fold = oracle.PROFILE_FOLD * period
        rng = np.random.default_rng(period)
        for n in (period, fold - 1, fold, fold + period - 1, 3 * fold + 7,
                  100_003):
            s = rng.integers(-1, 2, size=n).astype(np.int8)
            rows = n // period
            prof = (s[:rows * period].reshape(-1, period)
                    .sum(axis=0, dtype=np.int64) / rows)
            want = [float(np.mean(prof * np.roll(prof, -k % period)))
                    for k in range(2 * period)]
            got = oracle._estimate_periodic(s, period, 2 * period - 1)
            assert np.array_equal(got, want), n

    @pytest.mark.parametrize("stream", [np.array([1.0, -1.0, 1.0]),
                                        np.array([1, 2, -1], dtype=np.int8),
                                        np.array([1, -2, -1]),
                                        np.array([[1, -1], [1, 1]])])
    def test_rejects_streams_outside_the_levels(self, stream):
        with pytest.raises(ValueError):
            estimate_autocorr(stream, 1)

    @pytest.mark.parametrize("kmax", [-1, 3])
    def test_rejects_lags_without_pairs(self, kmax):
        with pytest.raises(ValueError):
            estimate_autocorr(np.array([1, -1, 1], dtype=np.int8), kmax)
