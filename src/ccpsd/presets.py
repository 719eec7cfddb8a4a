"""Named presets and embedded golden values for reproduction runs."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, partial

import numpy as np

from . import cyclo, spectrum, transfer
from .codebook import INFINITE_KINDS, Codebook, enumerate_codebook
from .fstd import build_grid_fstd, build_infinite_fstd, reduce_to_ostd

# Published 3 dB bandwidths (keyed by (m, x)).
TABLE_I_BANDWIDTH = {
    (2, 1): 0.480, (4, 1): 0.542, (6, 1): 0.577, (8, 1): 0.591, (10, 1): 0.596,
    (10, 2): 0.431, (10, 3): 0.334, (10, 4): 0.273, (10, 5): 0.231,
}
TABLE_II_BANDWIDTH = {
    (2, 1): 0.868, (4, 1): 0.644, (6, 1): 0.582, (8, 1): 0.568, (10, 1): 0.558,
    (10, 2): 0.412, (10, 3): 0.327, (10, 4): 0.283, (10, 5): 0.246,
}

# Published periodic autocorrelation of the (m=4, x=1) zero-run-family code.
AC41_PERIODIC = (0.0964, 0.0436, 0.0056, 0.0056, 0.0436)

# Entries whose published value disagrees with exact evaluation of the very
# transfer matrices printed alongside them by more than the 0.002 tolerance;
# the published numbers appear to be read from measured curves.  Exact values
# from this package are recorded for comparison.
KNOWN_BANDWIDTH_DEVIATIONS = {
    ("aloco", 4, 1): 0.5453,
    ("aloco", 10, 1): 0.5985,
    ("aloco", 10, 4): 0.2706,
    ("loco", 2, 1): 0.8859,
    ("loco", 4, 1): 0.6309,
    ("loco", 6, 1): 0.5859,
}


def transfer_matrix_for(family, method="auto"):
    """Canonical transfer matrix for a family (closed form when available)."""
    kind = family.kind
    if kind == "iid":
        return transfer.iid_matrix()
    if kind in INFINITE_KINDS:
        if method == "grid":
            return transfer.ostm_from_ostd(
                reduce_to_ostd(build_infinite_fstd(family)))
        if kind == "ax":
            return transfer.closed_form_ax(family.x)
        return transfer.closed_form_sx(family.x)
    closed_available = kind in ("aloco", "loco") and family.m >= family.x + 2
    if method == "closed" or (method == "auto" and closed_available):
        if not closed_available:
            raise ValueError("no closed form for this family; use the grid")
        if kind == "aloco":
            return transfer.closed_form_aloco(family.m, family.x)
        return transfer.closed_form_loco_A(family.m, family.x)
    return transfer.ostm_from_ostd(reduce_to_ostd(build_grid_fstd(
        Codebook(family))))


@lru_cache(maxsize=None)
def autocorr_for(family):
    """Exact autocorrelation of a finite family's antipodal signal, once."""
    return cyclo.exact_autocorr(enumerate_codebook(family), "y")


def _route(family):
    """A family's spectrum from its one exact computation, chosen here alone:
    the autocorrelation of a finite code, or the transfer matrix of a
    stream, whose stationary statistics it computes once.

    Returns ``(psd, lines, shaped)``: ``psd(freqs, with_pulse=True)`` off the
    line frequencies, ``lines(with_pulse=True)`` the discrete lines, and
    ``shaped(freqs)`` the pulse-shaped PSD that also takes f = 0, where it
    gives the continuous DC limit.
    """
    if family.m is not None:
        series = autocorr_for(family)
        psd = partial(cyclo.continuous_psd_from_aperiodic, series)
        return psd, partial(cyclo.discrete_lines, series), psd
    tm = transfer_matrix_for(family)

    def psd(freqs, with_pulse=True):
        vals = spectrum.spectrum_y(tm, freqs)
        return spectrum.pulse_shape(freqs) * vals if with_pulse else vals

    def lines(with_pulse=True):  # symmetric and i.i.d. streams carry none
        if family.kind != "ax":
            return []
        return [(0.0, float(spectrum.dc_line_weight(tm)))]

    symbolic = cache(lambda: spectrum.spectrum_x_symbolic(tm))

    def shaped(f):
        sym, pos = symbolic(), f > 0
        vals = np.empty(f.shape)
        vals[pos] = 4.0 * sym.evaluate(np.exp(-2j * np.pi * f[pos])).real
        if not pos.all():  # the DC limit, exactly
            vals[~pos] = 4.0 * float(sym.evaluate(Fraction(1)))
        return spectrum.pulse_shape(f) * vals

    return psd, lines, shaped


def psd_and_lines(family, freqs, with_pulse=True):
    """Continuous PSD at ``freqs`` and the discrete lines, as ``psd`` writes."""
    psd, lines, _ = _route(family)
    return psd(freqs, with_pulse), lines(with_pulse)


def continuous_psd(family, freqs, with_pulse=True):
    """Continuous PSD of the antipodal/three-level waveform at ``freqs``."""
    return _route(family)[0](freqs, with_pulse)


def bandwidth(family):
    """3 dB bandwidth of the continuous pulse-shaped PSD."""
    return cyclo.bandwidth_3db(_route(family)[2])
