from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import brute_force_codebook, contains_forbidden, depth_first_words
from ccpsd.codebook import (
    CLOCKED_KINDS,
    ENUMERATION_LIMIT,
    FINITE_KINDS,
    Automaton,
    ConstraintFamily,
    automaton,
    alpha,
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


def _no_listing(self, length):
    raise AssertionError(f"listed the {length}-bit words")


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

    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("kind", FINITE_KINDS)
    def test_join_matches_depth_first_walk(self, kind, x):
        # odd and even m, so heads of every length from 0 (at m = 1) to 8
        for m in range(2 if kind in CLOCKED_KINDS else 1, 17):
            fam = ConstraintFamily(kind, x, m)
            assert enumerate_codebook(fam).words == depth_first_words(fam)

    def test_join_matches_depth_first_walk_on_long_words(self):
        fam = ConstraintFamily("loco", 100, 150)
        assert enumerate_codebook(fam).words == depth_first_words(fam)

    def test_lists_at_the_word_limit(self):
        fam = ConstraintFamily("aloco", 1, 24)
        words = enumerate_codebook(fam).words
        assert len(words) == group_cardinalities(fam, 24)[0] == 922111
        assert all(a < b for a, b in zip(words, words[1:]))

    @pytest.mark.parametrize("kind", CLOCKED_KINDS)
    def test_clocked_drops_exactly_the_constant_words(self, kind):
        for x in (1, 2, 3):
            for m in range(2, 13):
                fam = ConstraintFamily(kind, x, m)
                listed = automaton(fam).walk(m)
                cb = enumerate_codebook(fam)
                assert (listed[0], listed[-1]) == ((0,) * m, (1,) * m)
                assert cb.words == listed[1:-1]
                assert cb.N == group_cardinalities(fam, m)[0]

    def test_known_sizes(self):
        # length-4 words avoiding 101
        assert enumerate_codebook(ConstraintFamily("aloco", 1, 4)).N == 12
        # plus avoiding 010
        assert enumerate_codebook(ConstraintFamily("loco", 1, 4)).N == 10
        # clocked variants drop the all-zero/all-one words
        assert enumerate_codebook(ConstraintFamily("caloco", 1, 4)).N == 10
        assert enumerate_codebook(ConstraintFamily("cloco", 1, 4)).N == 8

    def test_refuses_codebooks_over_the_word_limit(self, monkeypatch):
        # N = 922,111 words is listed; N = 2,839,729 is counted, and reading
        # its words is refused before any is listed
        assert group_cardinalities(ConstraintFamily("aloco", 1, 24), 24)[0] \
            <= ENUMERATION_LIMIT
        monkeypatch.setattr(Automaton, "walk", _no_listing)
        cb = enumerate_codebook(ConstraintFamily("aloco", 1, 26))
        assert cb.N == 2839729
        with pytest.raises(ValueError, match="2839729 words"):
            cb.words

    def test_lists_long_words_under_the_limit(self):
        # m beyond the old bound of 30 on the length, with few words
        for x, m, n in [(8, 40, 7324), (100, 150, 2652)]:
            cb = enumerate_codebook(ConstraintFamily("loco", x, m))
            assert cb.N == group_cardinalities(cb.family, m)[0] == n
            assert cb.words == sorted(set(cb.words))

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
        for length in range(2 if kind in CLOCKED_KINDS else 1, m + 1):
            cb = brute_force_codebook(ConstraintFamily(kind, x, length))
            assert group_cardinalities(fam, length) == (cb.N, cb.N1, cb.N2, cb.N3)

    @pytest.mark.parametrize("x", [1, 2, 3, 100])
    def test_loco_recurrence(self, x):
        # N(m) = N(m-1) + N(m-x-1), far beyond the enumeration limit
        top = 2 * x + 50
        fam = ConstraintFamily("loco", x, top)
        n = {L: group_cardinalities(fam, L)[0] for L in range(1, top + 1)}
        for m in range(x + 2, top + 1):
            assert n[m] == n[m - 1] + n[m - x - 1]

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
