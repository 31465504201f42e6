"""Tests for the replicate streams: substream and its batched draw."""

import numpy as np
import pytest

from forensic_bias.propagation import ChainParams, monte_carlo_chains
from forensic_bias.seeding import _BLOCK_VALUES, substream, substream_uniforms, validate_seed

# One-word seeds, the one-word edge, and two-word seeds (a second entropy word).
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1]
# Runs per call: more than one block of rows from m = 32 draws up.
N = 260


def _reference(master_seed, n, m):
    """One generator per run: the definition substream_uniforms batches."""
    rows = [substream(master_seed, i).random(m) for i in range(n)]
    return np.array(rows, dtype=float).reshape(n, m)


def _assert_bits_equal(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSubstreamUniformsBitExact:
    # Every row length takes the jump-ahead path, short rows as chain-study
    # draws them and rows past 64 draws as long chains do.
    @pytest.mark.parametrize("m", [0, 1, 11, 64, 65, 200])
    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_equals_substream(self, master_seed, m):
        _assert_bits_equal(substream_uniforms(master_seed, N, m), _reference(master_seed, N, m))

    @pytest.mark.parametrize("m", [1, 11, 64])
    def test_rows_past_a_block(self, m):
        # The array path fills _BLOCK_VALUES // m rows at a time.
        n = _BLOCK_VALUES // m + 7
        _assert_bits_equal(substream_uniforms(2**64 - 1, n, m), _reference(2**64 - 1, n, m))

    def test_rows_longer_than_a_block(self):
        # A row of more than _BLOCK_VALUES draws is a block of its own.
        m = _BLOCK_VALUES + 3
        _assert_bits_equal(substream_uniforms(7, 3, m), _reference(7, 3, m))

    @pytest.mark.parametrize("k", [31, 32])
    def test_propagation_on_both_paths(self, k):
        # m = 1 + 2k draws per replicate: chain lengths of 63 and 65 draws a row.
        study = monte_carlo_chains(ChainParams(k=k), 40, master_seed=11)
        draws = _reference(11, 40, 1 + 2 * k)
        assert np.array_equal(study.columns["trait"][:, 0, 0], draws[:, 0] < 0.15)
        _assert_bits_equal(study.columns["missing_share"][:, 0, :], draws[:, 1 : k + 1] * 0.5)
        odds = study.columns["neutral_odds"][:, 0, :]
        assert np.array_equal(odds == odds.max(), draws[:, k + 1 :] < 0.5)

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    @pytest.mark.parametrize("m", [3, 65])
    @pytest.mark.parametrize("master_seed", [7, 2**32 + 5])
    def test_rows_are_a_prefix_of_a_longer_draw(self, master_seed, m, edge):
        # Row i does not depend on n: a call that ends just before, on or
        # just after a block edge is the head of a call two blocks long.
        block = _BLOCK_VALUES // m
        longer = substream_uniforms(master_seed, 2 * block + 5, m)
        for n in (1, block + edge, 2 * block + edge):
            _assert_bits_equal(substream_uniforms(master_seed, n, m), longer[:n])

    def test_range_of_replicates(self):
        _assert_bits_equal(substream_uniforms(7, 300, 3), _reference(7, 300, 3))

    def test_no_runs(self):
        got = substream_uniforms(7, 0, 5)
        assert got.shape == (0, 5) and got.dtype == np.float64

    def test_zero_draws(self):
        assert substream_uniforms(7, 3, 0).shape == (3, 0)


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
            substream_uniforms(seed, 1, 3)

    @pytest.mark.parametrize("index", [True, -1, 1.0, np.int64(1)])
    def test_indices_follow_substream_rules(self, index):
        with pytest.raises(ValueError):
            substream(7, index)

    @pytest.mark.parametrize("index", [2**64, 2**70])
    def test_substream_takes_indices_past_64_bits(self, index):
        # Three entropy words: SeedSequence takes an int of any size.
        assert isinstance(substream(7, index), np.random.Generator)

    @pytest.mark.parametrize("n", [-1, 2.0, True, None])
    def test_run_count_validated(self, n):
        with pytest.raises(ValueError, match="^n must"):
            substream_uniforms(7, n, 3)

    @pytest.mark.parametrize("m", [-1, 2.0, True, None])
    def test_draw_count_validated(self, m):
        with pytest.raises(ValueError, match="^m must"):
            substream_uniforms(7, 1, m)
