"""Replicate streams: Philox counter jumps from one run key, and reused
generators, checked against numpy's own `Philox(key=...).jumped(r)`."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsel.streams import replicate_stream

# word-count edges of the master seed: one word, two, three (padded to the
# pool), exactly the pool's four, and more words than the pool holds
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128,
              2**128 + 12345, 2**200 + 7]
# counter edges: small indices, the 32-bit word boundary, word 2's last
# value, the carry into word 3 and indices that need word 3
INDEX_EDGES = [0, 1, 255, 256, 2**32 - 256, 2**32 - 1, 2**32, 2**32 + 256, 2**64 - 1, 2**64,
               2**64 + 5, 2**70 + 3]

SEEDS = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**32 - 1), st.integers(0, 2**260))
INDICES = st.one_of(st.sampled_from(INDEX_EDGES), st.integers(0, 10**6), st.integers(0, 2**66))


def fresh(master_seed, r):
    """Replicate r's stream as numpy builds it: the run key, jumped r times."""
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key).jumped(r))


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


@pytest.mark.parametrize("seed", SEED_EDGES)
@pytest.mark.parametrize("r", INDEX_EDGES)
def test_key_edges(seed, r):
    """Fresh and reused streams at the seed and counter-word edges: the run
    key from SeedSequence(seed), the counter jumped r times."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()
    state = replicate_stream(seed, r).bit_generator.state["state"]
    assert list(state["key"]) == key
    assert list(state["counter"]) == [0, 0, r % 2**64, r >> 64]
    expect = fresh(seed, r).random(5).tobytes()
    assert replicate_stream(seed, r).random(5).tobytes() == expect
    reused = fresh(1, 1)
    reused.random(3)
    assert replicate_stream(seed, r, reused).random(5).tobytes() == expect


def test_without_reuse_builds_the_seed_sequence_stream():
    """A new generator on the run key from SeedSequence(master_seed)."""
    a, b = replicate_stream(5, 9), fresh(5, 9)
    assert a.random(6).tobytes() == b.random(6).tobytes()
    assert replicate_stream(5, 9) is not replicate_stream(5, 9)


def test_interleaved_seeds_and_blocks():
    """Seeds that alternate, more of them than the key memo holds, each get
    their own key; indices that alternate between counter words each get
    their own counter."""
    g = fresh(0, 0)
    seeds = [1, 2, 1, 2**100, 3, 4, 5, 6, 1, 2**100, 2, 1]
    blocks = [0, 300, 1, 2**64 + 1, 2, 2**32]
    for i, seed in enumerate(seeds):
        r = blocks[i % len(blocks)]
        replicate_stream(seed, r, g)
        assert g.random(3).tobytes() == fresh(seed, r).random(3).tobytes()


def test_threads_share_the_key_memo():
    """Worker threads resetting streams of six seeds at once, more than the
    memo holds, each get their own seed's key."""
    def work(t):
        g = fresh(0, 0)
        return all(replicate_stream((t + i) % 6, i, g).random(2).tobytes()
                   == fresh((t + i) % 6, i).random(2).tobytes() for i in range(150))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            done = list(pool.map(work, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert done == [True] * 8


def test_negative_seed_is_rejected_like_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        replicate_stream(-1, 0, fresh(0, 0))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        replicate_stream(-1, 0)
