"""End-to-end checks: every published number and cross-method property.

Known deviations (see presets.KNOWN_BANDWIDTH_DEVIATIONS and the project
decision ledger) are marked xfail(strict=True) with the value we obtain
instead, so a silent change in behaviour still trips the suite.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ccpsd.clocked import (
    bfs_ostd,
    brute_force_ostd,
    clocked_inputs_from_fstd,
    effective_run_bound,
)
from ccpsd.codebook import ConstraintFamily, enumerate_codebook
from ccpsd.cyclo import continuous_psd_from_aperiodic, exact_autocorr
from ccpsd.fstd import build_grid_fstd, build_infinite_fstd, reduce_to_ostd
from ccpsd.oracle import StreamConfig, estimate_psd, generate_stream
from ccpsd.presets import (
    AC41_PERIODIC,
    KNOWN_BANDWIDTH_DEVIATIONS,
    TABLE_I_BANDWIDTH,
    TABLE_II_BANDWIDTH,
    bandwidth,
    continuous_psd,
)
from ccpsd.ratfn import RationalFn
from ccpsd.spectrum import (
    dc_line_weight,
    default_grid,
    prob_one,
    spectrum_x_symbolic,
    spectrum_y,
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
from ccpsd.spectrum import nrzi_psd_symbolic

from test_transfer import beta, mono

F = Fraction


# --- equilibrium probability --------------------------------------------

def test_equilibrium_probability_exact():
    start = time.perf_counter()
    for x in range(1, 6):
        assert prob_one(closed_form_ax(x)) == F(2, x + 4)
    assert time.perf_counter() - start < 1.0


# --- DC line weight -------------------------------------------------------

@pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
def test_dc_line_weight(x):
    got = dc_line_weight(closed_form_ax(x))
    assert abs(float(got) - x * x / (x + 4) ** 2) < 1e-12
    assert got == F(x * x, (x + 4) ** 2)


# --- periodic autocorrelation profile -------------------------------------

def test_periodic_autocorr_profile():
    s = exact_autocorr(enumerate_codebook(ConstraintFamily("aloco", 1, 4)))
    got = np.array([float(v) for v in s.periodic[:s.period]])
    assert np.max(np.abs(got - np.array(AC41_PERIODIC))) < 1e-4


# --- bandwidth tables ------------------------------------------------------

def _bandwidth_params(kind, table):
    params = []
    for (m, x), want in sorted(table.items()):
        key = (kind, m, x)
        if key in KNOWN_BANDWIDTH_DEVIATIONS:
            got = KNOWN_BANDWIDTH_DEVIATIONS[key]
            marks = pytest.mark.xfail(
                strict=True,
                reason=f"computed bandwidth {got}; published {want} "
                       "(tabulated value inconsistent with its own spectrum, "
                       "see decision ledger)")
            params.append(pytest.param(m, x, want, marks=marks))
        else:
            params.append(pytest.param(m, x, want))
    return params


@pytest.fixture(scope="module")
def bandwidths_asymmetric():
    start = time.perf_counter()
    got = {(m, x): bandwidth(ConstraintFamily("aloco", x, m))
           for (m, x) in TABLE_I_BANDWIDTH}
    elapsed = time.perf_counter() - start
    return got, elapsed


@pytest.fixture(scope="module")
def bandwidths_symmetric():
    return {(m, x): bandwidth(ConstraintFamily("loco", x, m))
            for (m, x) in TABLE_II_BANDWIDTH}


@pytest.mark.parametrize("m,x,want", _bandwidth_params("aloco", TABLE_I_BANDWIDTH))
def test_bandwidth_table_asymmetric(bandwidths_asymmetric, m, x, want):
    got, _ = bandwidths_asymmetric
    assert abs(got[(m, x)] - want) <= 0.002


def test_bandwidth_table_asymmetric_runtime(bandwidths_asymmetric):
    _, elapsed = bandwidths_asymmetric
    assert elapsed < 30.0


@pytest.mark.parametrize("m,x,want", _bandwidth_params("loco", TABLE_II_BANDWIDTH))
def test_bandwidth_table_symmetric(bandwidths_symmetric, m, x, want):
    assert abs(bandwidths_symmetric[(m, x)] - want) <= 0.002


@pytest.mark.parametrize("kind,x,want", [
    ("ax", 1, 0.7240375818117821), ("ax", 2, 0.5580141502290967),
    ("ax", 3, 0.45488629607482023), ("sx", 1, 0.6314742974961864),
    ("sx", 2, 0.4731173377156635), ("sx", 3, 0.38879287973025173),
])
def test_bandwidth_infinite_streams(kind, x, want):
    assert abs(bandwidth(ConstraintFamily(kind, x)) - want) <= 1e-12


# --- closed forms equal the grid method ------------------------------------

STRUCTURAL_PAIRS = [(3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (5, 3)]


@pytest.mark.parametrize("m,x", STRUCTURAL_PAIRS)
@pytest.mark.parametrize("kind", ["aloco", "loco"])
def test_closed_form_equals_grid(kind, m, x):
    cb = enumerate_codebook(ConstraintFamily(kind, x, m))
    grid = ostm_from_ostd(reduce_to_ostd(build_grid_fstd(cb)))
    closed = (closed_form_aloco(m, x) if kind == "aloco"
              else closed_form_loco_A(m, x))
    assert closed == grid


def test_clock_recoverable_4_1_fixture():
    tm = closed_form_aloco(4, 1)
    b = lambda a, p: beta(a, p, 12, 5)
    from ccpsd.ratfn import ZERO, D
    want = [
        [b(1, 5), mono(F(3, 5), 1) + b(F(3, 5), 6), b(F(2, 5), 7),
         mono(F(1, 5), 3) + b(F(1, 5), 8), ZERO],
        [b(F(5, 3), 4), b(1, 5), mono(F(2, 3), 1) + b(F(2, 3), 6),
         b(F(1, 3), 7), ZERO],
        [b(F(5, 2), 3), b(F(3, 2), 4), b(1, 5),
         mono(F(1, 2), 1) + b(F(1, 2), 6), ZERO],
        [b(F(5, 12), 7), b(3, 3), b(2, 4), b(1, 5), mono(F(5, 12), 1)],
        [D, ZERO, ZERO, ZERO, ZERO],
    ]
    assert [[tm.entries[i][j] for j in range(5)] for i in range(5)] == want


def test_fixed_length_4_1_fixture():
    from ccpsd.ratfn import ZERO, D
    tm = closed_form_loco_A(4, 1)
    want = {
        (0, 1): mono(F(3, 5), 1), (0, 6): mono(F(1, 5), 3),
        (0, 7): mono(F(1, 5), 4),
        (1, 2): mono(F(2, 3), 1), (1, 7): mono(F(1, 3), 3),
        (2, 3): mono(F(1, 2), 1), (2, 7): mono(F(1, 2), 2),
        (3, 7): D, (4, 2): D, (5, 3): D, (6, 7): D,
        (7, 0): mono(F(1, 2), 1), (7, 4): mono(F(1, 5), 2),
        (7, 5): mono(F(1, 10), 3), (7, 6): mono(F(1, 10), 4),
        (7, 7): mono(F(1, 10), 5),
    }
    assert tm.n == 8
    for i in range(8):
        for j in range(8):
            assert tm.entries[i][j] == want.get((i, j), ZERO), (i, j)


# --- finite-sum route equals state route ------------------------------------

@pytest.mark.parametrize("kind", ["aloco", "loco"])
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_route_equivalence(kind, m):
    fam = ConstraintFamily(kind, 1, m)
    freqs = default_grid(2048)
    method = "closed" if m >= 3 else "grid"
    state_route = continuous_psd(fam, freqs, with_pulse=False, method=method)
    series = exact_autocorr(enumerate_codebook(fam))
    sum_route = continuous_psd_from_aperiodic(series, freqs, with_pulse=False)
    assert np.max(np.abs(state_route - sum_route)) < 1e-9


# --- alternate-route agreement ----------------------------------------------

@pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pair", [(alternate_ax, closed_form_ax),
                                  (alternate_sx, closed_form_sx)],
                         ids=["ax", "sx"])
def test_alternate_route_agreement(x, pair):
    alt_maker, main_maker = pair
    alt_form = nrzi_psd_symbolic(alt_maker(x))
    freqs = default_grid(1024)
    main_vals = spectrum_y(main_maker(x), freqs)
    z = np.exp(-2j * np.pi * freqs)
    alt_vals = np.array([alt_form.evaluate(zz).real for zz in z])
    assert np.max(np.abs(alt_vals - main_vals)) < 1e-9


# --- Monte-Carlo verification ------------------------------------------------

MC_N = 10_000_000
MC_GRID = default_grid(128)

# (family args, lag cutoff, seed). Cutoffs balance truncation bias against
# estimator variance at the spectral peak; seeds are fixed for determinism.
MC_CASES = [
    (("ax", 1, None), 48, 1, None),
    (("ax", 2, None), 48, 1, None),
    (("ax", 3, None), 48, 1, None),
    (("ax", 4, None), 64, 1, None),
    (("ax", 5, None), 64, 2, None),
    (("sx", 1, None), 48, 1, None),
    (("sx", 2, None), 64, 1,
     "spectral peak 6.7: estimator noise floor at 1e7 symbols is ~0.022"),
    (("sx", 3, None), 128, 1,
     "spectral peak 12.5: bias/variance floor far above tolerance"),
    (("sx", 4, None), 192, 1,
     "spectral peak 19.6: bias/variance floor far above tolerance"),
    (("sx", 5, None), 256, 1,
     "spectral peak 31.6: bias/variance floor far above tolerance"),
    (("aloco", 1, 4), None, 1, None),
    (("loco", 1, 4), None, 1, None),
]


def _mc_params():
    params = []
    for fam_args, kmax, seed, reason in MC_CASES:
        if reason is None:
            params.append(pytest.param(fam_args, kmax, seed))
        else:
            params.append(pytest.param(
                fam_args, kmax, seed,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="unattainable at 1e7 symbols: " + reason)))
    return params


_mc_elapsed = []


@pytest.mark.parametrize("fam_args,kmax,seed", _mc_params())
def test_monte_carlo_matches_theory(fam_args, kmax, seed):
    kind, x, m = fam_args
    fam = ConstraintFamily(kind, x, m)
    start = time.perf_counter()
    stream = generate_stream(StreamConfig(fam, n_symbols=MC_N, seed=seed))
    est = estimate_psd(stream, MC_GRID, family=fam, kmax=kmax)
    theory = continuous_psd(fam, MC_GRID, with_pulse=False)
    _mc_elapsed.append(time.perf_counter() - start)
    assert np.max(np.abs(est - theory)) < 0.02


def test_monte_carlo_runtime():
    assert sum(_mc_elapsed) < 300.0


# --- balanced codes carry no spectral lines ----------------------------------

@pytest.mark.parametrize("m,x", sorted(TABLE_II_BANDWIDTH))
def test_balanced_code_has_no_lines(m, x):
    s = exact_autocorr(enumerate_codebook(ConstraintFamily("loco", x, m)))
    assert all(abs(float(v)) < 1e-12 for v in s.periodic)
    assert all(v == 0 for v in s.periodic)


# --- white baseline -----------------------------------------------------------

def test_white_baseline_analytic():
    assert 4 * spectrum_x_symbolic(iid_matrix()) == RationalFn.const(F(1))
    freqs = default_grid(512)
    assert np.max(np.abs(spectrum_y(iid_matrix(), freqs) - 1.0)) < 1e-11


def test_white_baseline_empirical():
    fam = ConstraintFamily("iid", 0)
    stream = generate_stream(StreamConfig(fam, n_symbols=MC_N, seed=1))
    est = estimate_psd(stream, MC_GRID, family=fam, kmax=64)
    assert np.max(np.abs(est - 1.0)) < 0.02


# --- clocked-codebook search matches brute force --------------------------------

@pytest.mark.parametrize("m,x", [(2, 1), (3, 1), (2, 2)])
def test_clocked_search_matches_brute_force(m, x):
    f = build_grid_fstd(enumerate_codebook(ConstraintFamily("caloco", x, m)))
    got = bfs_ostd(clocked_inputs_from_fstd(f))
    bound = effective_run_bound(m, x) + 1
    ref = brute_force_ostd(f, bound)
    assert {k: sorted(v) for k, v in got.items()} == ref
    sources = {src for src, _ in got}
    for j in sources:
        tot = sum((p for (a, _), runs in got.items() if a == j
                   for _, p in runs), F(0))
        assert abs(float(tot - 1)) < 1e-12 and tot == 1
    for runs in got.values():
        assert max(t for t, _ in runs) <= bound
