import json
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from brute_force import listed_autocorr, per_series_cosine_sum, word_array
from ccpsd import cyclo, presets
from ccpsd.cli import main
from ccpsd.codebook import (
    CLOCKED_KINDS,
    FINITE_KINDS,
    Automaton,
    ConstraintFamily,
    enumerate_codebook,
)
from ccpsd.cyclo import (
    BANDWIDTH_POINTS,
    bandwidth_3db,
    continuous_psd_from_aperiodic,
    discrete_lines,
    exact_autocorr,
)
from ccpsd.presets import (
    TABLE_I_BANDWIDTH,
    TABLE_II_BANDWIDTH,
    continuous_psd,
    transfer_matrix_for,
)
from ccpsd.spectrum import default_grid, spectrum_y
from ccpsd.transfer import closed_form_aloco, closed_form_loco_A

F = Fraction


def series_for(kind, x, m, **kw):
    return exact_autocorr(enumerate_codebook(ConstraintFamily(kind, x, m)), **kw)


class TestExactAutocorr:
    def test_clock_recoverable_4_1_periodic_profile(self):
        s = series_for("aloco", 1, 4)
        got = [float(v) for v in s.periodic[:s.period]]
        want = [0.0964, 0.0436, 0.0056, 0.0056, 0.0436]
        assert np.max(np.abs(np.array(got) - want)) < 1e-4

    def test_fixed_length_is_balanced(self):
        for m, x in [(2, 1), (4, 1), (6, 2)]:
            s = series_for("loco", x, m)
            assert all(v == 0 for v in s.periodic)

    def test_aperiodic_support_bound(self):
        for kind, x, m in [("aloco", 1, 4), ("loco", 1, 4), ("aloco", 2, 5)]:
            s = series_for(kind, x, m)
            cutoff = m + 2 * x - 1
            for k, v in enumerate(s.aperiodic):
                if k > cutoff:
                    assert v == 0

    def test_autocorr_is_exact_rational(self):
        s = series_for("aloco", 1, 4)
        assert all(isinstance(v, F) for v in s.periodic)
        assert all(isinstance(v, F) for v in s.aperiodic)


def _position_kind(pos, m, period):
    """('word', word_period) or ('bridge', left_word_period) plus offset."""
    t, q = divmod(pos, period)
    if q < m:
        return ("word", t, q)
    return ("bridge", t, q - m)


def exact_autocorr_dense(codebook, signal):
    """Reference: bridge statistics from the N x N array of bridge values."""
    fam = codebook.family
    m, x = fam.m, fam.x
    period = m + x
    words = word_array(codebook.words)
    n = len(words)
    both = np.outer(words[:, -1], words[:, 0])
    if signal == "y":
        w = 2 * words - 1
        b = np.zeros((n, n), dtype=np.int64) if fam.bridging == "z_symbols" \
            else 2 * both - 1
    else:
        w, b = words, both
    n2, n3 = n * n, n * n * n
    word_mean = [F(int(w[:, q].sum()), n) for q in range(m)]
    bridge_mean = F(int(b.sum()), n2)
    brow, bcol = b.sum(axis=1), b.sum(axis=0)

    def pos_mean(kind):
        return word_mean[kind[2]] if kind[0] == "word" else bridge_mean

    def pair_mean(a, c):
        ka, kc = _position_kind(a, m, period), _position_kind(c, m, period)
        if ka[0] == "word" and kc[0] == "word":
            if ka[1] == kc[1]:
                return F(int((w[:, ka[2]] * w[:, kc[2]]).sum()), n)
            return word_mean[ka[2]] * word_mean[kc[2]]
        if ka[0] == "bridge" and kc[0] == "bridge":
            if ka[1] == kc[1]:
                return F(int((b * b).sum()), n2)
            if abs(ka[1] - kc[1]) == 1:
                return F(int((bcol * brow).sum()), n3)
            return bridge_mean * bridge_mean
        if ka[0] == "bridge":
            ka, kc = kc, ka
        t, q, tb = ka[1], ka[2], kc[1]
        if t == tb:
            return F(int((w[:, q] * brow).sum()), n2)
        if t == tb + 1:
            return F(int((w[:, q] * bcol).sum()), n2)
        return word_mean[q] * bridge_mean

    lags = range(m + 2 * x + period)
    total = [sum((pair_mean(ell, ell + k) for ell in range(period)), F(0)) / period
             for k in lags]
    periodic = [sum((pos_mean(_position_kind(ell, m, period))
                     * pos_mean(_position_kind((ell + k) % period, m, period))
                     for ell in range(period)), F(0)) / period
                for k in lags]
    return total, periodic


def signals_of(kind):
    """The signals a kind defines: no 0/1 indicator under z-symbol bridging."""
    return ["y"] if kind in ("loco", "cloco") else ["y", "x"]


class TestBridgeClasses:
    @pytest.mark.parametrize("kind", FINITE_KINDS)
    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_equals_dense_reference(self, kind, x):
        for m in range(2 if kind in CLOCKED_KINDS else 1, 11):
            cb = enumerate_codebook(ConstraintFamily(kind, x, m))
            for signal in signals_of(kind):
                s = exact_autocorr(cb, signal)
                total, periodic = exact_autocorr_dense(cb, signal)
                assert (s.total, s.periodic) == (total, periodic)
                assert s.aperiodic == [t - p for t, p in zip(total, periodic)]

    def test_memory_is_not_quadratic_in_n(self):
        cb = enumerate_codebook(ConstraintFamily("aloco", 1, 14))
        tracemalloc.start()
        try:
            exact_autocorr(cb, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two N x N int64 arrays would take 16 N^2 bytes, 177 MB at N = 3,329
        assert peak < 20 * 2**20, f"peak {peak} bytes for N = {cb.N}"


def assert_equal_series(got, want):
    assert got.period == want.period
    assert got.total == want.total
    assert got.periodic == want.periodic
    assert got.aperiodic == want.aperiodic


class TestCountedStatistics:
    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("kind", FINITE_KINDS)
    def test_equals_listed_reference(self, kind, x):
        for m in range(2 if kind in CLOCKED_KINDS else 1, 17):
            cb = enumerate_codebook(ConstraintFamily(kind, x, m))
            for signal in signals_of(kind):
                assert_equal_series(exact_autocorr(cb, signal),
                                    listed_autocorr(cb, signal))

    @pytest.mark.parametrize("kind, x, m", [
        ("aloco", 60, 64), ("caloco", 60, 64), ("loco", 100, 150),
        ("cloco", 60, 100)])
    def test_equals_listed_reference_on_long_words(self, kind, x, m):
        # lengths of 64 bits or more, with few enough words to list
        cb = enumerate_codebook(ConstraintFamily(kind, x, m))
        for signal in signals_of(kind):
            assert_equal_series(exact_autocorr(cb, signal),
                                listed_autocorr(cb, signal))

    @pytest.mark.parametrize("kind, x, m", [("aloco", 1, 8), ("caloco", 2, 7),
                                            ("loco", 1, 9), ("cloco", 3, 10)])
    def test_lists_no_word(self, kind, x, m, monkeypatch, tmp_path):
        def walk(self, length):
            raise AssertionError(f"listed the {length}-bit words")

        monkeypatch.setattr(Automaton, "walk", walk)
        presets.autocorr_for.cache_clear()  # so each command computes
        family = ["--family", kind, "--x", str(x), "--m", str(m)]
        # psd also writes the discrete lines
        for cmd in (["autocorr"], ["bandwidth"], ["psd", "--points", "64"]):
            out = str(tmp_path / cmd[0])
            assert main(cmd + family + ["--out", out]) == 0
        assert json.loads((tmp_path / "psd.lines.json").read_text())["lines"]


class TestScale:
    @pytest.mark.parametrize("m", [30, 40])
    @pytest.mark.parametrize("kind, closed_form", [
        ("aloco", closed_form_aloco), ("loco", closed_form_loco_A)])
    def test_closed_form_equals_autocorrelation(self, kind, closed_form, m):
        freqs = default_grid(256)
        series = exact_autocorr(enumerate_codebook(ConstraintFamily(kind, 1, m)))
        want = continuous_psd_from_aperiodic(series, freqs, with_pulse=False)
        got = spectrum_y(closed_form(m, 1), freqs)
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("m,x", [(100, 1), (60, 2)])
    def test_loco_closed_form_equals_autocorrelation_at_length(self, m, x):
        freqs = default_grid(64)
        series = exact_autocorr(enumerate_codebook(ConstraintFamily("loco", x,
                                                                    m)))
        want = continuous_psd_from_aperiodic(series, freqs, with_pulse=False)
        got = spectrum_y(closed_form_loco_A(m, x), freqs)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_bandwidth_of_long_words(self, tmp_path):
        # aloco x=1 m=200 has about 9e48 words
        out = tmp_path / "bw.json"
        tracemalloc.start()
        try:
            code = main(["bandwidth", "--family", "aloco", "--x", "1",
                         "--m", "200", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert 0 < json.loads(out.read_text())["bandwidth_3db"] < 1
        assert peak < 100 * 2**20, f"peak {peak} bytes"

    def test_memory_is_not_quadratic_in_m(self):
        # the 300 x 300 array of pair counts alone would take 3.3 MiB
        cb = enumerate_codebook(ConstraintFamily("aloco", 1, 300))
        tracemalloc.start()
        try:
            exact_autocorr(cb, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak} bytes"


class TestSpectralRoutes:
    @pytest.mark.parametrize("kind", ["aloco", "loco"])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_sum_route_matches_state_route(self, kind, m):
        fam = ConstraintFamily(kind, 1, m)
        freqs = default_grid(512)
        method = "closed" if m >= 3 else "grid"
        a = spectrum_y(transfer_matrix_for(fam, method), freqs)
        s = series_for(kind, 1, m)
        b = continuous_psd_from_aperiodic(s, freqs, with_pulse=False)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_line_weights_nonnegative_and_real(self):
        s = series_for("aloco", 1, 4)
        lines = discrete_lines(s, with_pulse=False)
        assert len(lines) == 5
        for _, w in lines:
            assert w >= -1e-15

    def test_dc_line_positive_for_asymmetric(self):
        s = series_for("aloco", 1, 4)
        lines = dict(discrete_lines(s, with_pulse=False))
        assert lines[0.0] > 0


class TestBandwidth:
    def test_flat_spectrum_with_pulse(self):
        # a perfectly flat spectrum shaped by sinc^2 crosses half power
        # where sinc^2(f) = 1/2, i.e. f ~ 0.442946
        bw = bandwidth_3db(lambda f: np.sinc(f) ** 2)
        assert abs(bw - 2 * 0.4429467) < 1e-3

    def test_shortest_fixed_length_code(self):
        # (m=2, x=1) balanced code: aperiodic part is flat, so the
        # bandwidth is set by the pulse alone
        fam = ConstraintFamily("loco", 1, 2)
        freqs = default_grid(512)
        vals = continuous_psd(fam, freqs, with_pulse=False)
        assert np.max(np.abs(vals - vals[0])) < 1e-9


# The grids the PSDs of a reproduction run are read on: the default curve
# grid, a short one, the bandwidth grid and its DC point.
BATCH_GRIDS = {
    "default_2048": default_grid(2048),
    "default_64": default_grid(64),
    "bandwidth": np.arange(1, BANDWIDTH_POINTS + 1) / (2 * BANDWIDTH_POINTS),
    "dc": np.array([0.0]),
}

TABLE_FAMILIES = [ConstraintFamily(kind, x, m)
                  for kind, table in (("aloco", TABLE_I_BANDWIDTH),
                                      ("loco", TABLE_II_BANDWIDTH))
                  for (m, x) in table]


def reference_psd(series, freqs, with_pulse):
    return per_series_cosine_sum([float(v) for v in series.aperiodic],
                                 freqs, with_pulse)


@pytest.fixture(scope="module")
def batch():
    """Every finite kind at x <= 3 and several m, under each signal its
    bridging has; the series differ in length, so the batch pads."""
    return [series_for(kind, x, m, signal=signal)
            for kind in FINITE_KINDS for x in (1, 2, 3) for m in (2, 5, 9)
            for signal in (("y", "x") if kind in ("aloco", "caloco")
                           else ("y",))]


class TestBatchedCosineSums:
    @pytest.mark.parametrize("with_pulse", [False, True])
    @pytest.mark.parametrize("grid", sorted(BATCH_GRIDS))
    def test_batch_equals_per_series_loop(self, batch, grid, with_pulse):
        freqs = BATCH_GRIDS[grid]
        got = continuous_psd_from_aperiodic(batch, freqs, with_pulse)
        assert got.shape == (len(batch), len(freqs))
        for row, s in zip(got, batch):
            assert np.array_equal(row, reference_psd(s, freqs, with_pulse))

    @pytest.mark.parametrize("with_pulse", [False, True])
    @pytest.mark.parametrize("grid", sorted(BATCH_GRIDS))
    def test_one_series_gives_one_row(self, batch, grid, with_pulse):
        freqs = BATCH_GRIDS[grid]
        for s in batch[::7]:
            got = continuous_psd_from_aperiodic(s, freqs, with_pulse)
            assert got.shape == freqs.shape
            assert np.array_equal(got, reference_psd(s, freqs, with_pulse))

    def test_table_bandwidths_equal_per_family_reference(self):
        got = presets.bandwidths(TABLE_FAMILIES)
        assert len(got) == len(TABLE_FAMILIES)
        for fam, bw in zip(TABLE_FAMILIES, got):
            s = presets.autocorr_for(fam)
            assert bw == bandwidth_3db(partial(reference_psd, s,
                                               with_pulse=True)), fam

    @pytest.mark.parametrize("entries", [1, 18 * 7, 18 * 455])
    def test_bandwidths_do_not_depend_on_the_block(self, entries,
                                                   monkeypatch):
        want = presets.bandwidths(TABLE_FAMILIES)
        monkeypatch.setattr(cyclo, "BLOCK_ENTRIES", entries)
        assert presets.bandwidths(TABLE_FAMILIES) == want

    def test_mixed_families_keep_their_order(self):
        fams = [ConstraintFamily("ax", 2), ConstraintFamily("loco", 1, 4),
                ConstraintFamily("sx", 1), ConstraintFamily("aloco", 2, 6)]
        freqs = default_grid(64)
        for with_pulse in (False, True):
            got = list(presets.continuous_psds(fams, freqs, with_pulse))
            for fam, vals in zip(fams, got, strict=True):
                assert np.array_equal(
                    vals, continuous_psd(fam, freqs, with_pulse)), fam
        assert presets.bandwidths(fams) == [presets.bandwidth(f) for f in fams]
