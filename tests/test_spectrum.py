from fractions import Fraction

import numpy as np
import pytest

from brute_force import (alternate_ax, alternate_sx, dense_bareiss,
                         dense_gauss_jordan, derivative_at, horner,
                         nrzi_psd_symbolic, solved_psd_x, unit_circle_point)
from ccpsd import presets, transfer
from ccpsd.clocked import bfs_ostd, clocked_inputs_from_fstd
from ccpsd.codebook import ConstraintFamily, enumerate_codebook
from ccpsd.fstd import build_grid_fstd, reduce_to_ostd
from ccpsd.ratfn import ONE, ZERO, RationalFn, eliminate
from ccpsd.spectrum import (
    BLOCK_ENTRIES,
    dc_line_weight,
    default_grid,
    prob_one,
    pulse_shape,
    spectrum_x,
    spectrum_x_symbolic,
    spectrum_y,
    stationary_distribution,
)
from ccpsd.transfer import (
    TransferMatrix,
    closed_form_aloco,
    closed_form_ax,
    closed_form_loco_A,
    closed_form_sx,
    iid_matrix,
    ostm_from_ostd,
)

F = Fraction


def dense_stationary(tm):
    """pi from G(1) by Horner and the dense Bareiss reference, solving
    (G(1)^T - I) pi = 0 with the normalisation in place of the last
    equation."""
    n = tm.n
    g1 = [[horner(e.num, F(1)) / horner(e.den, F(1)) for e in row]
          for row in tm.entries]
    a = [[g1[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    a[n - 1] = [F(1)] * n
    b = [[F(0)]] * (n - 1) + [[F(1)]]
    return [row[0] for row in dense_bareiss(a, b)]


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
            assert 1 / prob_one(closed_form_ax(x)) == F(x + 4, 2)

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
        assert pi == dense_stationary(tm)

    @pytest.mark.parametrize("make", [closed_form_ax, closed_form_sx])
    def test_counted_visits_equal_solve(self, make):
        # the stream closed forms count their visits; the same entries
        # without counts go to the state reduction
        for x in range(1, 31):
            tm = make(x)
            solved = TransferMatrix(tm.family, tm.entries, tm.labels)
            assert tm.stationary == solved.stationary
            assert tm.prob_one == solved.prob_one

    def test_iid_counts_equal_solve(self):
        tm = iid_matrix()
        solved = TransferMatrix(tm.family, tm.entries, tm.labels)
        assert (tm.stationary, tm.prob_one) == (solved.stationary,
                                                solved.prob_one)


class TestIntegerElimination:
    """Visit counts and state reduction give the unique exact pi, once."""

    @pytest.mark.parametrize("kind,x,m", [("aloco", 2, 5), ("loco", 1, 6),
                                          ("caloco", 1, 4), ("cloco", 2, 6)])
    def test_grid_ostm_matches_dense(self, kind, x, m):
        tm = _grid_ostm(kind, x, m)
        pi = stationary_distribution(tm)
        assert pi == dense_stationary(tm)
        assert 1 / prob_one(tm) == sum(
            p * sum(derivative_at(e, 1) for e in row if e)
            for p, row in zip(pi, tm.entries))

    # the closed forms and a finite family's grid count their visits, the
    # A-LOCO closed form from its position means; a stream's grid and a BFS
    # matrix reduce their states once
    @pytest.mark.parametrize("make,reduced,means", [
        (lambda: closed_form_loco_A(6, 2), False, False),
        (lambda: closed_form_aloco(6, 2), False, True),
        (lambda: closed_form_ax(2), False, False),
        (lambda: _grid_ostm(), False, False),
        (lambda: presets.transfer_matrix_for(ConstraintFamily("ax", 2),
                                             "grid"), True, False),
        (lambda: _bfs_matrix("caloco", 1, 5), True, False)],
        ids=["loco", "aloco", "ax", "grid", "stream_grid", "bfs"])
    def test_statistics_are_computed_once(self, make, reduced, means,
                                          monkeypatch):
        reductions, reads = [], []
        real_reduce = transfer.reduce_states
        real_means = transfer.position_means

        def counting_reduce(g1):
            reductions.append(len(g1))
            return real_reduce(g1)

        def counting_means(*args):
            reads.append(args)
            return real_means(*args)

        monkeypatch.setattr(transfer, "reduce_states", counting_reduce)
        monkeypatch.setattr(transfer, "position_means", counting_means)
        tm = make()
        freqs = default_grid(32)
        first = spectrum_y(tm, freqs)
        want = ([tm.n] if reduced else [],
                [(tm.family, "x")] if means else [])
        assert (reductions, [a[:2] for a in reads]) == want
        assert np.array_equal(spectrum_y(tm, freqs), first)
        assert prob_one(tm) == tm.prob_one
        assert (reductions, [a[:2] for a in reads]) == want

    def test_entries_cannot_change(self):
        tm = closed_form_ax(2)
        assert all(isinstance(row, tuple) for row in tm.entries)
        with pytest.raises(AttributeError):
            tm.entries = ()


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
    p1 = float(prob_one(tm))
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


def spectrum_x_per_entry(tm, freqs):
    """Reference: the batched kernel with one np.polyval per distinct entry,
    as it was before the entries were evaluated in one Horner pass."""
    pi_f = np.array([float(p) for p in stationary_distribution(tm)])
    p1 = float(prob_one(tm))
    n = tm.n
    z = np.exp(-2j * np.pi * np.asarray(freqs, dtype=float))
    where = {}
    for i, row in enumerate(tm.entries):
        for j, e in enumerate(row):
            if e:
                where.setdefault(e, []).append((i, j))
    out = np.empty(len(z))
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, len(z), step):
        zb = z[start:start + step]
        a = np.zeros((len(zb), n, n), dtype=complex)
        a[:, np.arange(n), np.arange(n)] = 1.0
        for e, positions in where.items():
            rows, cols = zip(*positions)
            num = np.polyval([float(c) for c in reversed(e.num)], zb)
            den = np.polyval([float(c) for c in reversed(e.den)], zb)
            a[:, rows, cols] -= (num / den)[:, None]
        v = np.linalg.solve(a, np.ones((len(zb), n, 1)))[:, :, 0]
        out[start:start + step] = p1 * (2.0 * (v.real * pi_f).sum(axis=1) - 1.0)
    return out


def _grid_ostm(kind="aloco", x=2, m=5):
    cb = enumerate_codebook(ConstraintFamily(kind, x, m))
    return ostm_from_ostd(reduce_to_ostd(build_grid_fstd(cb)))


def _bfs_matrix(kind, x, m):
    """Transfer matrix of the self-clocked BFS run-length distributions."""
    fam = ConstraintFamily(kind, x, m)
    inputs = clocked_inputs_from_fstd(build_grid_fstd(enumerate_codebook(fam)))
    n = sum(inputs.labeled)
    entries = [[ZERO] * n for _ in range(n)]
    for (a, b), runs in bfs_ostd(inputs).items():
        for steps, p in runs:
            entries[a][b] = entries[a][b] + RationalFn.monomial(p, steps)
    return TransferMatrix(fam, entries, list(range(n)), origin="bfs")


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

    # the dense kernel serves codeword families; streams are checked
    # against exact values in TestExactReference
    @pytest.mark.parametrize("make", [
        lambda: closed_form_aloco(6, 2),
        lambda: closed_form_loco_A(6, 1),
        _grid_ostm,
        lambda: _grid_ostm("loco", 1, 5),
        lambda: _grid_ostm("cloco", 2, 6),
        lambda: _bfs_matrix("caloco", 1, 5),
        lambda: _bfs_matrix("cloco", 2, 6),
    ], ids=["aloco6_2", "loco6_1", "grid_aloco5_2", "grid_loco5_1",
            "grid_cloco6_2", "bfs_caloco5_1", "bfs_cloco6_2"])
    def test_equals_per_entry_kernel(self, make):
        tm = make()
        freqs = default_grid(256)
        assert np.array_equal(spectrum_x(tm, freqs),
                              spectrum_x_per_entry(tm, freqs))

    def test_equals_per_entry_kernel_over_blocks(self):
        tm = closed_form_loco_A(20, 1)
        freqs = default_grid(2048)
        assert len(freqs) * tm.n ** 2 > 7 * BLOCK_ENTRIES  # eight blocks
        assert np.array_equal(spectrum_x(tm, freqs),
                              spectrum_x_per_entry(tm, freqs))

    def test_blocks_change_no_value(self):
        tm = closed_form_ax(30)
        freqs = default_grid(600)
        assert len(freqs) * tm.n ** 2 > 2 * BLOCK_ENTRIES  # three blocks
        whole = spectrum_x(tm, freqs)
        for k in (1, 300, 599):
            split = np.concatenate([spectrum_x(tm, freqs[:k]),
                                    spectrum_x(tm, freqs[k:])])
            assert np.array_equal(whole, split)


def dense_symbolic(tm):
    """Reference S_X(D) = p1 (pi v + pi v(1/D) - 1), with v solving
    (I - G) v = 1 by dense Gauss-Jordan over RationalFn."""
    n = tm.n
    a = [[(ONE if i == j else ZERO) - tm.entries[i][j] for j in range(n)]
         for i in range(n)]
    v = dense_gauss_jordan(a, [[ONE]] * n)
    pv = sum((RationalFn.const(p) * row[0]
              for p, row in zip(stationary_distribution(tm), v)), ZERO)
    return RationalFn.const(prob_one(tm)) * (pv + pv.substitute_inverse() - ONE)


class TestSymbolicElimination:
    """The state elimination of ``spectrum_x_symbolic`` gives the same
    canonical RationalFn as a dense solve of (I - G) v = 1."""

    @pytest.mark.parametrize("make", [
        *(lambda x=x: closed_form_ax(x) for x in (1, 2, 3, 5, 8)),
        *(lambda x=x: closed_form_sx(x) for x in (1, 2, 3, 5, 8)),
        iid_matrix,
        lambda: closed_form_aloco(6, 1),
        lambda: closed_form_loco_A(6, 1),
        lambda: presets.transfer_matrix_for(ConstraintFamily("caloco", 1, 6),
                                            "grid"),
        lambda: presets.transfer_matrix_for(ConstraintFamily("cloco", 2, 6),
                                            "grid"),
    ], ids=[*(f"ax{x}" for x in (1, 2, 3, 5, 8)),
            *(f"sx{x}" for x in (1, 2, 3, 5, 8)), "iid", "aloco6_1",
            "loco6_1", "grid_caloco6_1", "grid_cloco6_2"])
    def test_equals_dense_solve(self, make):
        tm = make()
        assert spectrum_x_symbolic(tm) == dense_symbolic(tm)


def index_order_symbolic(tm):
    """S_X(D) with the states eliminated in index order."""
    out = {i: {j: e for j, e in enumerate(row) if e}
           for i, row in enumerate(tm.entries)}
    for i in range(tm.n):
        out[i]["T"] = ONE
    out["S"] = {i: RationalFn.const(p) for i, p in enumerate(tm.stationary)}
    eliminate(out, range(tm.n))
    pv = out["S"]["T"]
    return RationalFn.const(tm.prob_one) * (pv + pv.substitute_inverse() - ONE)


class TestEliminationOrder:
    """Eliminating from the last state back gives the canonical RationalFn
    of index order, at sizes a dense solve would take long on."""

    @pytest.mark.parametrize("make", [closed_form_ax, closed_form_sx],
                             ids=["ax", "sx"])
    @pytest.mark.parametrize("x", [20, 40])
    def test_equals_index_order(self, make, x):
        tm = make(x)
        assert spectrum_x_symbolic(tm) == index_order_symbolic(tm)

    def test_kept_on_the_matrix(self):
        tm = closed_form_ax(3)
        assert spectrum_x_symbolic(tm) is spectrum_x_symbolic(tm)


class TestExactReference:
    """A stream's PSD on a grid against S_X solved exactly at Gaussian-
    rational points of the unit circle, z = ((1 - t^2) - 2it) / (1 + t^2),
    that is f = arctan(t) / pi; t = 1/2000 sits near DC, where a dense
    float solve loses most."""

    TS = [F(1, 2000), F(1, 500), F(1, 100), F(1, 10), F(1, 3), F(1), F(3),
          F(40)]

    @pytest.mark.parametrize("make", [closed_form_ax, closed_form_sx],
                             ids=["ax", "sx"])
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_matches_exact_solve(self, make, x):
        tm = make(x)
        freqs = np.arctan([float(t) for t in self.TS]) / np.pi
        got = spectrum_x(tm, freqs)
        for t, g in zip(self.TS, got):
            want = solved_psd_x(tm, unit_circle_point(t))
            assert abs(F(float(g)) - want) <= F(1, 10 ** 13) * abs(want), t

    def test_iid_is_exact(self):
        freqs = np.arctan([float(t) for t in self.TS]) / np.pi
        got = spectrum_x(iid_matrix(), freqs)
        assert all(g == 0.25 for g in got)


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
