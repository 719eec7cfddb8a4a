from fractions import Fraction

import numpy as np
import pytest

from ccpsd.ratfn import RationalFn
from ccpsd.spectrum import (
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
    closed_form_ax,
    closed_form_sx,
    iid_matrix,
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
