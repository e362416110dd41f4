"""Counter-based random streams for reproducible parallel simulation.

Every replicate gets its own Philox stream derived from (master_seed,
replicate_index), so results do not depend on how replicates are divided
among worker threads.

The stream of replicate r is Philox keyed by
`SeedSequence(entropy=master_seed, spawn_key=(r,)).generate_state(2, uint64)`
at counter 0.  Building that SeedSequence and a new Philox costs ~30 us, so
`replicate_stream` can instead reset a generator the caller already holds to
the same initial state.  numpy's own SeedSequence mixes the master seed;
only the spawn word is hashed here, for a block of replicates in one
vectorised pass.  `numpy.random` itself is imported on first use, not with
this module.
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


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, elementwise over arrays."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
    return value ^ (value >> 16)


def _constants(hc: int, mult: int) -> np.ndarray:
    """The hash constants hc, hc*mult, ... (_POOL_SIZE + 1 of them) as a
    uint32 column."""
    out = [hc]
    for _ in range(_POOL_SIZE):
        out.append(out[-1] * mult & _MASK)
    return np.array(out, dtype=np.uint32)[:, None]


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
    # The pool once the master seed's words are mixed in; the spawn word
    # comes after them, so only it differs between replicates.  Mixing w
    # seed words hashes 4 + 12 + 4 * max(0, w - 4) times, each step
    # advancing the hash constant by _MULT_A.
    pool = np.random.SeedSequence(master_seed).pool[:, None]
    words = max(1, -(-master_seed.bit_length() // 32))
    hc = _INIT_A * pow(_MULT_A, 16 + _POOL_SIZE * max(0, words - _POOL_SIZE), 2**32) & _MASK
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
