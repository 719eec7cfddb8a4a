import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from brute_force import brute_force_codebook, listed_autocorr
from ccpsd import presets
from ccpsd.cli import main
from ccpsd.codebook import (
    CLOCKED_KINDS,
    FINITE_KINDS,
    Automaton,
    ConstraintFamily,
    enumerate_codebook,
)
from ccpsd.cyclo import (
    bandwidth_3db,
    continuous_psd_from_aperiodic,
    discrete_lines,
    exact_autocorr,
)
from ccpsd.presets import continuous_psd, transfer_matrix_for
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
    words = np.array(codebook.words, dtype=np.int64)
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

    def test_refuses_given_words(self):
        # the counted statistics are the whole family's, not these words'
        cb = brute_force_codebook(ConstraintFamily("aloco", 1, 6))
        with pytest.raises(ValueError, match="given words"):
            exact_autocorr(cb)

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
