"""Tests for repro.core.configuration."""

import pytest

from repro.core.configuration import is_silent, ranks_are_permutation
from repro.core.errors import NotSilentError
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR


class TestRanksArePermutation:
    def test_exact_permutation(self):
        assert ranks_are_permutation([2, 1, 3], 3)

    def test_duplicate_rank(self):
        assert not ranks_are_permutation([1, 1, 3], 3)

    def test_missing_rank(self):
        assert not ranks_are_permutation([1, 2, 2], 3)

    def test_none_entries(self):
        assert not ranks_are_permutation([1, None, 3], 3)

    def test_out_of_range(self):
        assert not ranks_are_permutation([0, 1, 2], 3)
        assert not ranks_are_permutation([2, 3, 4], 3)

    def test_non_integer_rank(self):
        assert not ranks_are_permutation([1, "2", 3], 3)
        # bool is an int subclass; True == 1 counts as a valid rank value
        assert ranks_are_permutation([True, 2], 2)

    def test_empty_is_trivially_wrong_for_positive_n(self):
        assert not ranks_are_permutation([], 3)


class TestIsSilent:
    def test_ranked_ciw_is_silent(self):
        protocol = SilentNStateSSR(5)
        assert is_silent(protocol, [0, 1, 2, 3, 4])

    def test_duplicate_rank_is_not_silent(self):
        protocol = SilentNStateSSR(5)
        assert not is_silent(protocol, [0, 0, 1, 2, 3])

    def test_same_state_needs_multiplicity_two(self):
        # A single agent in a state that only reacts with itself is inert.
        protocol = SilentNStateSSR(3)
        assert is_silent(protocol, [0, 1, 2])
        assert not is_silent(protocol, [1, 1, 2])

    def test_non_silent_protocol_raises(self, rng):
        protocol = SyncDictionarySSR(4)
        states = protocol.unique_names_configuration(rng)
        with pytest.raises(NotSilentError):
            is_silent(protocol, states)
