"""Counter-based random streams for reproducible parallel simulation.

Every replicate gets its own Philox stream derived from (master_seed,
replicate_index), so results do not depend on how replicates are divided
among worker threads.

The stream of replicate r is Philox keyed by
`SeedSequence(entropy=master_seed, spawn_key=(r,)).generate_state(2, uint64)`
at counter 0.  Building that SeedSequence and a new Philox costs ~30 us, so
`replicate_stream` can instead reset a generator the caller already holds to
the same initial state, with the keys of a block of replicates derived in one
vectorised pass of SeedSequence's hash.  `numpy.random` itself is imported on
first use, not with this module.
"""

from __future__ import annotations

import threading

import numpy as np

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK = 0xFFFFFFFF

_KEY_BLOCK = 256  # replicate keys per vectorised pass; a power of two <= 2**32
_ZEROS = (0, 0, 0, 0)
_local = threading.local()  # per thread: the key block it used last


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator keyed by (master_seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def replicate_stream(master_seed: int, replicate_index: int,
                     reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Stream for one Monte Carlo replicate.

    Given `reuse`, a Generator over Philox, its bit generator is reset to the
    stream's initial state (key, counter 0, empty buffer) and it is returned
    in place of a new generator; it then draws exactly what a new one would.
    """
    if reuse is None:
        return substream(master_seed, replicate_index)
    master_seed = int(master_seed)
    block, i = divmod(int(replicate_index), _KEY_BLOCK)
    cached = getattr(_local, "keys", None)  # the block this thread used last
    if cached is None or cached[0] != (master_seed, block):
        cached = _local.keys = ((master_seed, block), _key_block(master_seed, block))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": cached[1][i]},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse


def _hash(value, hc: int, mult: int):
    """SeedSequence's hash of a uint32 word under the running hash constant
    hc; returns the hash and the next constant."""
    hc_next = hc * mult & _MASK
    value = (value ^ hc) * hc_next & _MASK
    return value ^ (value >> 16), hc_next


def _mix(x, y):
    """SeedSequence's mix of two uint32 words (ints or uint32 arrays)."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
    return value ^ (value >> 16)


def _words(n: int) -> list[int]:
    """n as little-endian uint32 words, at least one (SeedSequence's coercion)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _constants(hc: int, mult: int) -> np.ndarray:
    """The hash constants hc, hc*mult, ... (_POOL_SIZE + 1 of them) as a
    uint32 column."""
    out = [hc]
    for _ in range(_POOL_SIZE):
        out.append(out[-1] * mult & _MASK)
    return np.array(out, dtype=np.uint32)[:, None]


def _seed_pool(master_seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence's entropy pool (a uint32 column) and hash constant after
    master_seed is mixed in, padded with zero words to the pool size as it is
    whenever a spawn key follows.  The spawn key's words come after these, so
    only they differ between replicates."""
    run = _words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    hc = _INIT_A
    pool = []
    for w in run[:_POOL_SIZE]:
        h, hc = _hash(w, hc, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hc = _hash(pool[src], hc, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, hc = _hash(w, hc, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    return np.array(pool, dtype=np.uint32)[:, None], hc


def _key_block(master_seed: int, block: int) -> list[list[int]]:
    """Philox keys [k0, k1] of the _KEY_BLOCK replicates from
    block*_KEY_BLOCK on, each equal to
    SeedSequence(entropy=master_seed, spawn_key=(r,)).generate_state(2, uint64).

    The pool's four words are the rows of a (4, _KEY_BLOCK) array, so each
    hashing step acts on every pool word of every replicate at once.  Indices
    from 2**32 on, two spawn words and far more replicates than memory holds,
    take numpy's own path."""
    first = block * _KEY_BLOCK
    if first + _KEY_BLOCK > 2**32:
        return [np.random.SeedSequence(master_seed, spawn_key=(r,)).generate_state(2, np.uint64).tolist()
                for r in range(first, first + _KEY_BLOCK)]
    pool, hc = _seed_pool(master_seed)
    w = np.arange(first, first + _KEY_BLOCK, dtype=np.uint32)  # the one spawn word
    hcs = _constants(hc, _MULT_A)
    h = (w ^ hcs[:-1]) * hcs[1:]
    pool = _mix(pool, h ^ (h >> 16))
    # generate_state(2, uint64): four words, one per pool word, then viewed
    # in little-endian pairs
    hcs = _constants(_INIT_B, _MULT_B)
    h = (pool ^ hcs[:-1]) * hcs[1:]
    state = np.ascontiguousarray((h ^ (h >> 16)).T, dtype="<u4")
    return state.view("<u8").tolist()
