"""Replicate streams: vectorised SeedSequence keys and reused generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsel import streams
from recsel.streams import replicate_stream

# word-count edges of the master seed: one word, two, three (padded to the
# pool), exactly the pool's four, and more words than the pool holds
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128,
              2**128 + 12345, 2**200 + 7]
# spawn-word edges: block boundaries up to the last one-word index, and from
# 2**32 (two words) on, where keys come from numpy's own SeedSequence
INDEX_EDGES = [0, 1, streams._KEY_BLOCK - 1, streams._KEY_BLOCK, 2**32 - streams._KEY_BLOCK,
               2**32 - 1, 2**32, 2**32 + streams._KEY_BLOCK, 2**64, 2**70 + 3]

SEEDS = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**32 - 1), st.integers(0, 2**260))
INDICES = st.one_of(st.sampled_from(INDEX_EDGES), st.integers(0, 10**6), st.integers(0, 2**32 - 1),
                    st.integers(0, 2**66))


def fresh(master_seed, r):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=(r,))))


def numpy_key(master_seed, r):
    return np.random.SeedSequence(master_seed, spawn_key=(r,)).generate_state(2, np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, r=INDICES)
def test_vectorised_keys_equal_seed_sequence(seed, r):
    block, i = divmod(r, streams._KEY_BLOCK)
    assert streams._key_block(seed, block)[i] == numpy_key(seed, r)


@pytest.mark.parametrize("seed", SEED_EDGES)
@pytest.mark.parametrize("r", INDEX_EDGES)
def test_key_edges(seed, r):
    block, i = divmod(r, streams._KEY_BLOCK)
    assert streams._key_block(seed, block)[i] == numpy_key(seed, r)


def test_whole_block_matches():
    keys = streams._key_block(20260810, 3)
    first = 3 * streams._KEY_BLOCK
    assert keys == [numpy_key(20260810, r) for r in range(first, first + streams._KEY_BLOCK)]


def draw(rng, op, size):
    """One draw of a kind the engine or a caller may make; 32-bit integers
    leave half a 64-bit word buffered, odd `random` sizes part of Philox's
    four-word buffer."""
    if op == "gamma":
        return rng.standard_gamma(0.5, size)
    if op == "normal":
        return rng.standard_normal(size)
    if op == "exponential":
        return rng.standard_exponential(size)
    if op == "random":
        return rng.random(size)
    if op == "uint32":  # the full range: every 32-bit word is returned as drawn
        return rng.integers(0, 2**32, size, dtype=np.uint32)
    return rng.integers(0, 2**63 - 1, size, dtype=np.int64)


OPS = st.lists(st.tuples(st.sampled_from(["gamma", "normal", "exponential", "random", "uint32", "int64"]),
                         st.integers(1, 9)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, r=INDICES, before=OPS, after=OPS.filter(bool))
def test_reused_generator_draws_as_a_fresh_one(seed, r, before, after):
    """Whatever a generator drew before, reset to a replicate's stream it
    draws what a new generator on that stream draws, draw for draw."""
    reused = fresh(7, 3)
    for op, size in before:
        draw(reused, op, size)
    assert replicate_stream(seed, r, reused) is reused
    new = fresh(seed, r)
    for op, size in after:
        assert draw(reused, op, size).tobytes() == draw(new, op, size).tobytes(), op


def test_without_reuse_builds_the_seed_sequence_stream():
    a, b = replicate_stream(5, 9), fresh(5, 9)
    assert a.random(6).tobytes() == b.random(6).tobytes()
    assert replicate_stream(5, 9) is not replicate_stream(5, 9)


def test_interleaved_seeds_and_blocks():
    """The per-thread key block is replaced when the seed or block changes."""
    g = fresh(0, 0)
    for seed, r in [(1, 0), (2, 0), (1, 300), (1, 1), (2**100, 1), (1, 1)]:
        replicate_stream(seed, r, g)
        assert g.random(3).tobytes() == fresh(seed, r).random(3).tobytes()


def test_negative_seed_is_rejected_like_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(-1, spawn_key=(0,))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        replicate_stream(-1, 0, fresh(0, 0))
