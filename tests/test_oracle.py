import numpy as np
import pytest

from brute_force import contains_forbidden
from ccpsd import oracle
from ccpsd.codebook import ConstraintFamily, forbidden_patterns
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

    # rows of 64 symbols for kmax < 64, of kmax + 1 above
    @pytest.mark.parametrize("n,kmax", [
        (n, kmax) for n in (1, 2, 50, 63, 64, 65, 640, 1000, 12_345)
        for kmax in (0, 1, 5, 70) if kmax < n])
    def test_row_edges(self, n, kmax):
        s = np.random.default_rng(n).integers(-1, 2, size=n).astype(np.int8)
        assert np.array_equal(estimate_autocorr(s, kmax),
                              estimate_autocorr_per_lag(s, kmax))

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
