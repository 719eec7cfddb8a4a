from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccpsd.codebook import (
    ConstraintFamily,
    alpha,
    brute_force_codebook,
    contains_forbidden,
    count_by_automaton,
    enumerate_codebook,
    forbidden_patterns,
    group_cardinalities,
    lam,
    zeta,
)


finite_params = st.tuples(
    st.sampled_from(["aloco", "loco", "caloco", "cloco"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=8),
)


class TestFamilies:
    def test_infinite_takes_no_length(self):
        with pytest.raises(ValueError):
            ConstraintFamily("ax", 1, 4)

    def test_finite_needs_length(self):
        with pytest.raises(ValueError):
            ConstraintFamily("aloco", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ConstraintFamily("xyz", 1)

    def test_patterns(self):
        assert forbidden_patterns(ConstraintFamily("ax", 2)) == [
            (1, 0, 1), (1, 0, 0, 1)]
        assert forbidden_patterns(ConstraintFamily("sx", 1)) == [
            (1, 0, 1), (0, 1, 0)]


class TestEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(finite_params)
    def test_matches_exhaustive_filter(self, params):
        kind, x, m = params
        fam = ConstraintFamily(kind, x, m)
        assert enumerate_codebook(fam).words == brute_force_codebook(fam).words

    def test_known_sizes(self):
        # length-4 words avoiding 101
        assert enumerate_codebook(ConstraintFamily("aloco", 1, 4)).N == 12
        # plus avoiding 010
        assert enumerate_codebook(ConstraintFamily("loco", 1, 4)).N == 10
        # clocked variants drop the all-zero/all-one words
        assert enumerate_codebook(ConstraintFamily("caloco", 1, 4)).N == 10
        assert enumerate_codebook(ConstraintFamily("cloco", 1, 4)).N == 8

    def test_sorted_lexicographically(self):
        cb = enumerate_codebook(ConstraintFamily("loco", 1, 4))
        assert cb.words == sorted(cb.words)

    @settings(max_examples=40, deadline=None)
    @given(finite_params)
    def test_no_forbidden_patterns(self, params):
        kind, x, m = params
        fam = ConstraintFamily(kind, x, m)
        pats = forbidden_patterns(fam)
        for w in enumerate_codebook(fam).words:
            assert not contains_forbidden(w, pats)


class TestCardinalities:
    @settings(max_examples=40, deadline=None)
    @given(finite_params)
    def test_automaton_count_matches_enumeration(self, params):
        kind, x, m = params
        fam = ConstraintFamily(kind, x, m)
        assert group_cardinalities(fam, m)[0] == enumerate_codebook(fam).N
        assert count_by_automaton(fam, m) == brute_force_codebook(fam).N

    def test_prefix_groups(self):
        fam = ConstraintFamily("aloco", 1, 4)
        n, n1, n2, n3 = group_cardinalities(fam, 4)
        assert (n, n1, n2, n3) == (12, 4, 3, 2)

    def test_ratios_for_known_case(self):
        fam = ConstraintFamily("aloco", 1, 4)
        assert zeta(fam) == Fraction(5, 12)
        assert alpha(fam, 4) == Fraction(2, 5)
        assert alpha(fam, 3) == Fraction(1, 3)
        assert alpha(fam, 2) == Fraction(1, 2)

    def test_lambda_half_at_length_two(self):
        fam = ConstraintFamily("loco", 1, 4)
        assert lam(fam, 2) == Fraction(1, 2)
