from fractions import Fraction

import numpy as np
import pytest

from brute_force import horner
from ccpsd.codebook import ConstraintFamily, enumerate_codebook
from ccpsd.fstd import build_grid_fstd, reduce_to_ostd
from ccpsd.ratfn import RationalFn
from ccpsd.spectrum import (
    BLOCK_ENTRIES,
    dc_line_weight,
    default_grid,
    mean_run_length,
    nrzi_psd_symbolic,
    prob_one,
    pulse_shape,
    spectrum_x,
    spectrum_x_symbolic,
    spectrum_y,
    stationary_distribution,
)
from ccpsd.transfer import (
    alternate_ax,
    alternate_sx,
    closed_form_aloco,
    closed_form_ax,
    closed_form_loco_A,
    closed_form_sx,
    iid_matrix,
    ostm_from_ostd,
)

F = Fraction


class TestStationary:
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_prob_one_ax(self, x):
        assert prob_one(closed_form_ax(x)) == F(2, x + 4)

    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_prob_one_sx(self, x):
        # symmetric constraint: labeled symbols occur at density 1/2
        assert prob_one(closed_form_sx(x)) == F(1, 2)

    def test_mean_run_length(self):
        # run lengths: 1 w.p. 1/2, else x+1+Geom(1/2); mean = (x+4)/2
        for x in (1, 2, 3):
            assert mean_run_length(closed_form_ax(x)) == F(x + 4, 2)

    def test_stationary_is_exact(self):
        tm = closed_form_ax(2)
        pi = stationary_distribution(tm)
        g1 = [[tm.entries[i][j].evaluate(F(1)) for j in range(tm.n)]
              for i in range(tm.n)]
        for j in range(tm.n):
            assert sum(pi[i] * g1[i][j] for i in range(tm.n)) == pi[j]
        assert sum(pi) == 1

    @pytest.mark.parametrize("make", [closed_form_ax, closed_form_sx])
    def test_stationary_of_large_stream_matrix(self, make):
        # 121 states with about 2n nonzero entries of G(1)
        tm = make(120)
        pi = stationary_distribution(tm)
        g1 = [[horner(e.num, F(1)) / horner(e.den, F(1)) for e in row]
              for row in tm.entries]
        assert sum(pi) == 1
        for j in range(tm.n):
            assert sum(pi[i] * g1[i][j] for i in range(tm.n) if g1[i][j]) \
                == pi[j]


class TestDcWeight:
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_line_weight(self, x):
        assert dc_line_weight(closed_form_ax(x)) == F(x * x, (x + 4) ** 2)
        # symmetric signal has zero mean, hence no DC line
        assert dc_line_weight(closed_form_sx(x)) == 0


class TestNumericRoutes:
    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_symbolic_matches_numeric(self, x):
        freqs = default_grid(64)
        for tm in (closed_form_ax(x), closed_form_sx(x)):
            num = spectrum_x(tm, freqs)
            sym = spectrum_x_symbolic(tm)
            vals = np.array([sym.evaluate(np.exp(-2j * np.pi * f)).real
                             for f in freqs])
            assert np.max(np.abs(num - vals)) < 1e-12

    def test_y_is_four_times_x(self):
        freqs = default_grid(16)
        tm = closed_form_ax(1)
        assert np.allclose(spectrum_y(tm, freqs), 4 * spectrum_x(tm, freqs))

    def test_pulse_shaping(self):
        freqs = default_grid(16)
        tm = closed_form_ax(1)
        shaped = pulse_shape(freqs) * spectrum_y(tm, freqs)
        assert np.allclose(shaped, np.sinc(freqs) ** 2 * spectrum_y(tm, freqs))


def spectrum_x_per_point(tm, freqs):
    """Reference: scalar evaluation of every entry and one solve per point."""
    pi = stationary_distribution(tm)
    p1 = float(prob_one(tm, pi))
    pi_c = np.array([complex(p) for p in pi])
    eye = np.eye(tm.n, dtype=complex)
    out = np.empty(len(freqs))
    for k, f in enumerate(freqs):
        z = np.exp(-2j * np.pi * f)
        g = np.array([[complex(e.evaluate(z)) for e in row]
                      for row in tm.entries])
        v = np.linalg.solve(eye - g, np.ones(tm.n, dtype=complex))
        out[k] = p1 * (2.0 * np.real(pi_c @ v) - 1.0)
    return out


def _grid_ostm():
    cb = enumerate_codebook(ConstraintFamily("aloco", 2, 5))
    return ostm_from_ostd(reduce_to_ostd(build_grid_fstd(cb)))


class TestBatchedKernel:
    @pytest.mark.parametrize("make", [
        *(lambda x=x: closed_form_ax(x) for x in range(1, 6)),
        *(lambda x=x: closed_form_sx(x) for x in range(1, 6)),
        lambda: closed_form_aloco(6, 2),
        lambda: closed_form_loco_A(6, 1),
        _grid_ostm,
    ], ids=[*(f"ax{x}" for x in range(1, 6)), *(f"sx{x}" for x in range(1, 6)),
            "aloco6_2", "loco6_1", "grid_aloco5_2"])
    def test_matches_per_point_loop(self, make):
        tm = make()
        freqs = default_grid(256)
        diff = np.abs(spectrum_x(tm, freqs) - spectrum_x_per_point(tm, freqs))
        assert np.max(diff) < 1e-10

    def test_blocks_change_no_value(self):
        tm = closed_form_ax(30)
        freqs = default_grid(600)
        assert len(freqs) * tm.n ** 2 > 2 * BLOCK_ENTRIES  # three blocks
        whole = spectrum_x(tm, freqs)
        for k in (1, 300, 599):
            split = np.concatenate([spectrum_x(tm, freqs[:k]),
                                    spectrum_x(tm, freqs[k:])])
            assert np.array_equal(whole, split)


class TestAlternateForms:
    """The transition-based route applied to the bit-wise-difference
    matrices must reproduce the main-route antipodal spectrum."""

    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pair", [(alternate_ax, closed_form_ax),
                                      (alternate_sx, closed_form_sx)],
                             ids=["ax", "sx"])
    def test_alternate_route_identity(self, x, pair):
        alt_maker, main_maker = pair
        alt_form = nrzi_psd_symbolic(alt_maker(x))
        main_form = spectrum_x_symbolic(main_maker(x))
        diff = alt_form - 4 * main_form
        assert diff == RationalFn.const(F(0))

    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pair", [(alternate_ax, closed_form_ax),
                                      (alternate_sx, closed_form_sx)],
                             ids=["ax", "sx"])
    def test_alternate_route_numeric(self, x, pair):
        alt_maker, main_maker = pair
        alt_form = nrzi_psd_symbolic(alt_maker(x))
        freqs = default_grid(1024)
        main_vals = spectrum_y(main_maker(x), freqs)
        z = np.exp(-2j * np.pi * freqs)
        alt_vals = np.array([alt_form.evaluate(zz).real for zz in z])
        assert np.max(np.abs(alt_vals - main_vals)) < 1e-9


class TestWhiteBaseline:
    def test_unit_spectrum(self):
        tm = iid_matrix()
        freqs = default_grid(256)
        assert prob_one(tm) == F(1, 2)
        assert dc_line_weight(tm) == 0
        # exact symbolic identity: antipodal spectrum is the constant 1
        sym = spectrum_x_symbolic(tm)
        assert 4 * sym == RationalFn.const(F(1))
        assert np.max(np.abs(spectrum_y(tm, freqs) - 1.0)) < 1e-11
