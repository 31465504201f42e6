"""Tests for the replicate streams: substream and its batched draw."""

import numpy as np
import pytest

from forensic_bias.propagation import ChainParams, monte_carlo_chains
from forensic_bias.seeding import _BLOCK_VALUES, substream, substream_uniforms, validate_seed

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1]
# One-word indices, the one-word edge, two-word indices (a second
# entropy word), and the largest index the batched path takes.
INDICES = [0, 1, 255, 256, 257, 2**32 - 1, 2**32, 2**40, 2**64 - 1]


def _reference(master_seed, indices, m):
    """One generator per replicate: the definition substream_uniforms batches."""
    rows = [substream(master_seed, i).random(m) for i in indices]
    return np.array(rows, dtype=float).reshape(len(indices), m)


def _assert_bits_equal(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSubstreamUniformsBitExact:
    # Every row length takes the jump-ahead path, short rows as chain-study
    # draws them and rows past 64 draws as long chains do.
    @pytest.mark.parametrize("m", [0, 1, 11, 64, 65, 200])
    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_equals_substream(self, master_seed, m):
        _assert_bits_equal(substream_uniforms(master_seed, INDICES, m), _reference(master_seed, INDICES, m))

    @pytest.mark.parametrize("m", [1, 11, 64])
    def test_rows_past_a_block(self, m):
        # The array path fills _BLOCK_VALUES // m rows at a time.
        indices = range(2**64 - _BLOCK_VALUES // m - 7, 2**64)
        _assert_bits_equal(substream_uniforms(2**64 - 1, indices, m), _reference(2**64 - 1, indices, m))

    def test_rows_longer_than_a_block(self):
        # A row of more than _BLOCK_VALUES draws is a block of its own.
        indices = [0, 2**64 - 1, 5]
        m = _BLOCK_VALUES + 3
        _assert_bits_equal(substream_uniforms(7, indices, m), _reference(7, indices, m))

    @pytest.mark.parametrize(
        "indices",
        [range(0), range(5, 6), range(3, 3000, 7), range(2**64 - 1, 2**64 - 50, -4), range(2**32 + 9, 2**32 - 9, -1)],
    )
    @pytest.mark.parametrize("m", [3, 65])
    def test_range_equals_its_list(self, indices, m):
        got = substream_uniforms(7, indices, m)
        _assert_bits_equal(got, substream_uniforms(7, list(indices), m))
        _assert_bits_equal(got, _reference(7, indices, m))

    @pytest.mark.parametrize("k", [31, 32])
    def test_propagation_on_both_paths(self, k):
        # m = 1 + 2k draws per replicate: chain lengths of 63 and 65 draws a row.
        study = monte_carlo_chains(ChainParams(k=k), 40, master_seed=11)
        draws = _reference(11, range(40), 1 + 2 * k)
        assert np.array_equal(study.columns["trait"][:, 0, 0], draws[:, 0] < 0.15)
        _assert_bits_equal(study.columns["missing_share"][:, 0, :], draws[:, 1 : k + 1] * 0.5)
        odds = study.columns["neutral_odds"][:, 0, :]
        assert np.array_equal(odds == odds.max(), draws[:, k + 1 :] < 0.5)

    @pytest.mark.parametrize("master_seed", [0, 2**32 + 5])
    def test_mixed_word_counts_in_one_call(self, master_seed):
        indices = [2**33 + 1, 3, 2**64 - 2, 2**32 - 1, 0, 2**32, 17]
        _assert_bits_equal(substream_uniforms(master_seed, indices, 7), _reference(master_seed, indices, 7))

    def test_range_of_replicates(self):
        _assert_bits_equal(substream_uniforms(7, range(300), 3), _reference(7, range(300), 3))

    def test_repeated_and_unordered_indices(self):
        indices = [5, 2, 5, 9, 2]
        got = substream_uniforms(11, indices, 4)
        _assert_bits_equal(got, _reference(11, indices, 4))
        assert np.array_equal(got[0], got[2])

    def test_empty_indices(self):
        got = substream_uniforms(7, [], 5)
        assert got.shape == (0, 5) and got.dtype == np.float64

    def test_zero_draws(self):
        assert substream_uniforms(7, range(3), 0).shape == (3, 0)


class TestValidation:
    @pytest.mark.parametrize("part", [True, False])
    def test_substream_rejects_bool_parts(self, part):
        with pytest.raises(ValueError):
            substream(7, part)

    @pytest.mark.parametrize("part", [-1, 1.0, "1", np.int64(1)])
    def test_substream_rejects_non_int_parts(self, part):
        with pytest.raises(ValueError):
            substream(7, part)

    @pytest.mark.parametrize("seed", [True, -1, 2**64, 1.5])
    def test_seed_rules_shared(self, seed):
        with pytest.raises(ValueError):
            validate_seed(seed)
        with pytest.raises(ValueError):
            substream(seed, 0)
        with pytest.raises(ValueError):
            substream_uniforms(seed, [0], 3)

    @pytest.mark.parametrize("index", [True, -1, 1.0, np.int64(1)])
    def test_indices_follow_substream_rules(self, index):
        with pytest.raises(ValueError):
            substream(7, index)
        with pytest.raises(ValueError):
            substream_uniforms(7, [0, index], 3)

    @pytest.mark.parametrize("index", [2**64, 2**70])
    def test_unrepresentable_index_raises(self, index):
        # substream takes these (three entropy words); the batched path
        # must refuse them rather than draw a different stream.
        assert isinstance(substream(7, index), np.random.Generator)
        with pytest.raises(ValueError):
            substream_uniforms(7, [1, index], 3)

    @pytest.mark.parametrize(
        "indices", [range(-1, 3), range(3, -2, -1), range(2**64 - 2, 2**64 + 1), range(2**64, 2**64 - 3, -1)]
    )
    def test_range_checked_by_its_ends(self, indices):
        with pytest.raises(ValueError):
            substream_uniforms(7, indices, 3)

    @pytest.mark.parametrize("m", [-1, 2.0, True, None])
    def test_draw_count_validated(self, m):
        with pytest.raises(ValueError):
            substream_uniforms(7, [0], m)
