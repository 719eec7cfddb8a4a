from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_force import (brute_force_ostd, fraction_grid_visits,
                         fraction_merge_equivalent_states)
from ccpsd.clocked import bfs_ostd, clocked_inputs_from_fstd, effective_run_bound
from ccpsd.codebook import CLOCKED_KINDS, ConstraintFamily, enumerate_codebook
from ccpsd.fstd import (
    Fstd,
    Ostd,
    State,
    build_grid_fstd,
    _grid_visits,
    build_infinite_fstd,
    merge_equivalent_states,
    reduce_to_ostd,
)
from ccpsd.presets import continuous_psd, transfer_matrix_for
from ccpsd.ratfn import ZERO, RationalFn
from ccpsd.spectrum import default_grid, spectrum_y
from ccpsd.transfer import TransferMatrix, ostm_from_ostd


class TestInfiniteDiagrams:
    def test_a1_shape(self):
        f = build_infinite_fstd(ConstraintFamily("ax", 1))
        assert len(f.states) == 4
        assert len(f.edges) == 7

    def test_s1_shape(self):
        f = build_infinite_fstd(ConstraintFamily("sx", 1))
        assert len(f.states) == 4
        assert len(f.edges) == 6

    def test_structural_invariants(self):
        for kind in ("ax", "sx"):
            for x in (1, 2, 3, 20):
                assert build_infinite_fstd(ConstraintFamily(kind, x)).check()

    def test_reduction_size_matches_run_categories(self):
        for x in (1, 2, 3, 20):
            o = reduce_to_ostd(build_infinite_fstd(ConstraintFamily("ax", x)))
            assert o.n == x + 1

    def test_rejects_finite_families(self):
        with pytest.raises(ValueError):
            build_infinite_fstd(ConstraintFamily("aloco", 1, 4))


def _word_probability(raw, word):
    """Product of raw-grid edge probabilities along one stream word.

    The walk starts in the last-column state after a word ending in 0 and
    its bridge, from which the next word is drawn with no condition.
    """
    fam = raw.family
    flipped = fam.kind in ("loco", "cloco")  # the grid's stream reads 1 - bit
    bridge = (1,) * fam.x if flipped else (0,) * fam.x
    state = next(i for i, s in enumerate(raw.states)
                 if s.position == fam.m + fam.x - 1
                 and s.history == (0,) + bridge)
    step = {(f, sym): (t, p) for f, t, sym, p in raw.edges}
    prob = Fraction(1)
    for bit in word:
        state, p = step[(state, 1 - bit if flipped else bit)]
        prob *= p
    return prob


class TestCountedGrid:
    @pytest.mark.parametrize("kind", ["aloco", "loco", "caloco", "cloco"])
    def test_grid_draws_uniform_words(self, kind):
        for x in (1, 2, 3):
            for m in range(2 if kind in CLOCKED_KINDS else 1, 9):
                cb = enumerate_codebook(ConstraintFamily(kind, x, m))
                raw = build_grid_fstd(cb, merge=False)
                for w in cb.words:
                    assert _word_probability(raw, w) == Fraction(1, cb.N), \
                        (kind, x, m, w)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["aloco", "loco", "caloco", "cloco"]),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=12))
    def test_routes_agree(self, kind, x, m):
        if kind in CLOCKED_KINDS:
            m = max(m, 2)
        fam = ConstraintFamily(kind, x, m)
        freqs = default_grid(64)
        diagram = build_grid_fstd(enumerate_codebook(fam))
        grid = ostm_from_ostd(reduce_to_ostd(diagram))
        grid_psd = spectrum_y(grid, freqs)
        autocorr_psd = continuous_psd(fam, freqs, with_pulse=False)
        assert np.max(np.abs(grid_psd - autocorr_psd)) < 1e-9
        if kind in ("aloco", "loco") and m >= x + 2:
            assert transfer_matrix_for(fam, "closed") == grid
        if kind in CLOCKED_KINDS:
            # raises unless every run ends within k_eff + 1 steps
            edges = bfs_ostd(clocked_inputs_from_fstd(diagram))
            n = sum(s.labeled for s in diagram.states)
            entries = [[ZERO] * n for _ in range(n)]
            for (a, b), runs in edges.items():
                for steps, p in runs:
                    entries[a][b] = entries[a][b] + RationalFn.monomial(p, steps)
            bfs = TransferMatrix(fam, entries, list(range(n)), origin="bfs")
            assert np.max(np.abs(spectrum_y(bfs, freqs) - grid_psd)) < 1e-9


class TestGridDiagrams:
    def test_invariants_and_conservation(self):
        for kind, x, m in [("aloco", 1, 4), ("loco", 1, 4), ("aloco", 2, 5),
                           ("loco", 2, 5), ("caloco", 1, 3), ("cloco", 1, 4)]:
            cb = enumerate_codebook(ConstraintFamily(kind, x, m))
            g = build_grid_fstd(cb)
            assert g.check()
            assert ostm_from_ostd(reduce_to_ostd(g)).check_stochastic()

    @pytest.mark.parametrize("kind", ["aloco", "loco", "caloco", "cloco"])
    def test_merged_diagrams_pass_check(self, kind):
        # build_grid_fstd checks the raw diagram only: merging keeps it valid
        for x in (1, 2):
            for m in range(2 if kind in CLOCKED_KINDS else 1, 9):
                cb = enumerate_codebook(ConstraintFamily(kind, x, m))
                assert build_grid_fstd(cb).check(), (x, m)

    def test_merge_preserves_ostm(self):
        for kind, x, m in [("aloco", 1, 4), ("loco", 1, 4), ("aloco", 2, 5)]:
            cb = enumerate_codebook(ConstraintFamily(kind, x, m))
            merged = ostm_from_ostd(reduce_to_ostd(build_grid_fstd(cb)))
            raw = build_grid_fstd(cb, merge=False)
            # bisimulation merging must not change label-to-label statistics:
            # compare total run generating functions aggregated per source
            raw_ostd = reduce_to_ostd(merge_equivalent_states(raw))
            assert ostm_from_ostd(raw_ostd) == merged

    def test_known_sizes(self):
        g = build_grid_fstd(enumerate_codebook(ConstraintFamily("aloco", 1, 4)))
        assert sum(1 for s in g.states if s.labeled) == 5
        g = build_grid_fstd(enumerate_codebook(ConstraintFamily("loco", 1, 4)))
        assert sum(1 for s in g.states if s.labeled) == 8


def _one_state_fstd(probabilities):
    """One labeled state with a self-loop of each given probability."""
    state = State("stationary", (1,), True, (0, 1))
    return Fstd(family=ConstraintFamily("ax", 1), states=[state],
                edges=[(0, 0, 1, p) for p in probabilities])


def _series_by_brute_force(diagram, bound, truncate=False):
    """Coefficients 0..bound of every reduced edge, summed over the
    label-free paths of at most ``bound`` steps, in the reduction's order."""
    # brute_force_ostd numbers labeled states in state order, the
    # reduction in labeled_indices() order; on the raw grid they differ
    in_state_order = sorted(diagram.labeled_indices())
    to_ostd = {i: a for a, i in enumerate(diagram.labeled_indices())}
    want = {}
    for (j, k), runs in brute_force_ostd(diagram, bound, truncate).items():
        series = [Fraction(0)] * (bound + 1)
        for steps, p in runs:
            series[steps] = p
        want[(to_ostd[in_state_order[j]], to_ostd[in_state_order[k]])] = series
    return want


def _reduced_series(ostd, bound):
    return {key: fn.series_coefficients(bound + 1)
            for key, fn in ostd.edges.items()}


def _two_loop_fstd(order):
    """Labeled a and b, unlabeled u and v, listed in ``order``: u and v
    each have a self-loop and an edge to the other."""
    states = {"a": State("stationary", (1,), True, (0, 0)),
              "b": State("stationary", (1,), True, (0, 1)),
              "u": State("stationary", (0,), False, (3, 0)),
              "v": State("stationary", (0,), False, (3, 1))}
    at = {name: i for i, name in enumerate(order)}
    edges = [("a", "a", 1, Fraction(1, 2)), ("a", "u", 0, Fraction(1, 2)),
             ("b", "v", 0, Fraction(1)),
             ("u", "u", 0, Fraction(1, 3)), ("u", "v", 0, Fraction(1, 3)),
             ("u", "a", 1, Fraction(1, 3)),
             ("v", "v", 0, Fraction(1, 4)), ("v", "u", 0, Fraction(1, 4)),
             ("v", "b", 1, Fraction(1, 2))]
    fstd = Fstd(family=ConstraintFamily("ax", 1),
                states=[states[name] for name in order],
                edges=[(at[f], at[t], sym, p) for f, t, sym, p in edges])
    assert fstd.check()
    return fstd


class TestPathGeneratingFunctions:
    @pytest.mark.parametrize("kind,x,m", [
        (kind, x, m) for kind in ("caloco", "cloco") for x in (1, 2)
        for m in range(2, 7)])
    def test_series_equal_brute_force_runs(self, kind, x, m):
        # every run of a clocked stream ends within k_eff + 1 steps, so the
        # first k_eff + 2 coefficients hold every run and the rest are 0
        cb = enumerate_codebook(ConstraintFamily(kind, x, m))
        bound = effective_run_bound(m, x) + 1
        for diagram in (build_grid_fstd(cb), build_grid_fstd(cb, merge=False)):
            ostd = reduce_to_ostd(diagram)
            assert _reduced_series(ostd, bound) == _series_by_brute_force(
                diagram, bound)
            assert all(fn.den == (1,) for fn in ostd.edges.values())

    @pytest.mark.parametrize("kind,x,m", [
        (kind, x, m) for kind in ("aloco", "loco") for x in (1, 2)
        for m in range(1, 7)] + [
        (kind, x, None) for kind in ("ax", "sx") for x in (1, 2, 3)])
    def test_series_with_label_free_cycles_equal_truncated_paths(
            self, kind, x, m):
        # aloco, ax and sx diagrams have label-free cycles, so runs are
        # unbounded: the first K + 1 coefficients sum the paths of at most
        # K steps
        bound = 3 * ((m or 0) + x) + 4
        if m is None:
            diagrams = [build_infinite_fstd(ConstraintFamily(kind, x))]
        else:
            cb = enumerate_codebook(ConstraintFamily(kind, x, m))
            diagrams = [build_grid_fstd(cb), build_grid_fstd(cb, merge=False)]
        for diagram in diagrams:
            assert _reduced_series(reduce_to_ostd(diagram), bound) == \
                _series_by_brute_force(diagram, bound, truncate=True)

    @pytest.mark.parametrize("order", ["abuv", "abvu", "uavb"])
    def test_two_unlabeled_self_loops_reduce_to_truncated_paths(self, order):
        fstd = _two_loop_fstd(order)
        ostd = reduce_to_ostd(fstd)
        bound = 10
        assert _reduced_series(ostd, bound) == _series_by_brute_force(
            fstd, bound, truncate=True)
        # the elimination order leaves the canonical entries unchanged
        assert ostd.edges == reduce_to_ostd(_two_loop_fstd("abuv")).edges
        assert all(fn.den != (1,) for fn in ostd.edges.values())
        assert ostm_from_ostd(ostd).check_stochastic()

    @pytest.mark.parametrize("probabilities", [
        (Fraction(0), Fraction(1)),
        (Fraction(-1, 2), Fraction(3, 2)),
        (Fraction(2),),
    ])
    def test_check_refuses_edge_probability_outside_unit_interval(
            self, probabilities):
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            _one_state_fstd(probabilities).check()

    def test_check_refuses_sink_state(self):
        # labeled a -> a with 1/2 and -> unlabeled sink u with 1/2
        a = State("stationary", (1,), True, (0, 1))
        u = State("stationary", (0,), False, (3, 0))
        fstd = Fstd(family=ConstraintFamily("ax", 1), states=[a, u],
                    edges=[(0, 0, 1, Fraction(1, 2)), (0, 1, 0, Fraction(1, 2))])
        with pytest.raises(ValueError,
                           match="state 1 outgoing probability 0 != 1"):
            fstd.check()

    def test_check_sums_unequal_denominators(self):
        # 1/2 + 1/3 + 1/6 over their lcm 6; without the 1/6 the message
        # names the reduced total
        assert _one_state_fstd((Fraction(1, 2), Fraction(1, 3),
                                Fraction(1, 6))).check()
        with pytest.raises(ValueError,
                           match="state 0 outgoing probability 5/6 != 1"):
            _one_state_fstd((Fraction(1, 2), Fraction(1, 3))).check()

    def test_ostm_refuses_row_not_summing_to_one(self):
        half = RationalFn.monomial(Fraction(1, 2), 1)
        ostd = Ostd(family=ConstraintFamily("ax", 1), state_keys=[(0, 1)],
                    edges={(0, 0): half})
        with pytest.raises(ValueError, match="sums to 1/2"):
            ostm_from_ostd(ostd)
        assert ostm_from_ostd(reduce_to_ostd(
            _one_state_fstd((Fraction(1, 2), Fraction(1, 2))))).n == 1


def _types(value):
    """The types of a value, tuple by tuple and list by list."""
    if isinstance(value, (tuple, list)):
        return [_types(v) for v in value]
    return type(value)


def _same(got, want):
    """== with the same type in every position."""
    assert got == want
    assert _types(got) == _types(want)


class TestIntegerArithmetic:
    """The merge and the forward masses run on ints; both equal their
    ``Fraction`` references, value for value and type for type."""

    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["aloco", "loco", "caloco", "cloco"])
    def test_grid_merge_and_visits_equal_references(self, kind, x):
        for m in range(2 if kind in CLOCKED_KINDS else 1, 13):
            raw = build_grid_fstd(enumerate_codebook(
                ConstraintFamily(kind, x, m)), merge=False)
            merged = merge_equivalent_states(raw)
            states, edges = fraction_merge_equivalent_states(raw)
            assert merged.states == states, m
            _same(merged.edges, edges)
            labeled = merged.labeled_indices()
            visits, period = _grid_visits(merged, labeled)
            want, want_period = fraction_grid_visits(merged, labeled)
            _same(visits, want)
            assert period == want_period

    @pytest.mark.parametrize("kind", ["ax", "sx"])
    def test_stream_merge_equals_reference(self, kind):
        for x in (1, 2, 3, 5, 8):
            diagram = build_infinite_fstd(ConstraintFamily(kind, x))
            merged = merge_equivalent_states(diagram)
            states, edges = fraction_merge_equivalent_states(diagram)
            assert merged.states == states, x
            _same(merged.edges, edges)

    def test_merge_sums_edges_sharing_a_symbol(self):
        # a reaches the equivalent u and v by symbol 0, 1/2 each: merged,
        # a has one edge of 1 to their block
        a = State("stationary", (1,), True, (0, 0))
        u = State("stationary", (0,), False, (3, 0))
        v = State("stationary", (0, 0), False, (3, 0))
        half = Fraction(1, 2)
        diagram = Fstd(family=ConstraintFamily("ax", 1), states=[a, u, v],
                       edges=[(0, 1, 0, half), (0, 2, 0, half),
                              (1, 0, 1, Fraction(1)), (2, 0, 1, Fraction(1))])
        merged = merge_equivalent_states(diagram)
        assert merged.states == [a, u]
        assert merged.edges == [(0, 1, 0, Fraction(1)), (1, 0, 1, Fraction(1))]
        states, edges = fraction_merge_equivalent_states(diagram)
        assert merged.states == states
        _same(merged.edges, edges)
        # edges sharing a symbol into different blocks stay apart
        merged = merge_equivalent_states(_two_loop_fstd("uvab"))
        states, edges = fraction_merge_equivalent_states(_two_loop_fstd("uvab"))
        assert merged.states == states
        _same(merged.edges, edges)
