"""Exact and empirical power spectral densities of binary constrained codes."""

__version__ = "0.1.0"

from .codebook import Codebook, ConstraintFamily, enumerate_codebook
from .cyclo import (
    AutocorrSeries,
    bandwidth_3db,
    continuous_psd_from_aperiodic,
    exact_autocorr,
)
from .fstd import Fstd, Ostd, build_grid_fstd, build_infinite_fstd, reduce_to_ostd
from .spectrum import (
    default_grid,
    prob_one,
    spectrum_x,
    spectrum_x_symbolic,
    spectrum_y,
    stationary_distribution,
)
from .transfer import (
    TransferMatrix,
    closed_form_aloco,
    closed_form_ax,
    closed_form_loco_A,
    closed_form_sx,
    ostm_from_ostd,
)

__all__ = [
    "__version__",
    "Codebook", "ConstraintFamily", "enumerate_codebook",
    "AutocorrSeries", "bandwidth_3db", "continuous_psd_from_aperiodic",
    "exact_autocorr",
    "Fstd", "Ostd", "build_grid_fstd", "build_infinite_fstd", "reduce_to_ostd",
    "default_grid", "prob_one", "spectrum_x",
    "spectrum_x_symbolic", "spectrum_y", "stationary_distribution",
    "TransferMatrix", "closed_form_aloco", "closed_form_ax",
    "closed_form_loco_A", "closed_form_sx", "ostm_from_ostd",
]
