"""Every ```python block of README.md runs as written.  The replicate
stream recipe names `master_seed` and `r` without binding them, so blocks
run with both bound, and the recipe's generator must draw what
replicate_stream(master_seed, r) draws."""

import re
from pathlib import Path

import numpy as np
import pytest

from recsel.streams import replicate_stream

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
RECIPES = [block for block in BLOCKS if "master_seed" in block]


def run_block(block: str, master_seed: int = 404, r: int = 7) -> dict:
    """The names a README block leaves bound, run with master_seed and r set."""
    namespace = {"master_seed": master_seed, "r": r}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace


@pytest.mark.parametrize("index", range(len(BLOCKS)), ids=lambda i: f"block{i + 1}")
def test_block_runs(index):
    run_block(BLOCKS[index])


def test_readme_has_the_stream_recipe():
    assert len(BLOCKS) >= 2 and len(RECIPES) == 1


@pytest.mark.parametrize("master_seed, r", [(404, 0), (404, 7), (2**70 + 3, 2**64 + 5)])
def test_stream_recipe_draws_what_replicate_stream_draws(master_seed, r):
    rng = run_block(RECIPES[0], master_seed, r)["rng"]
    expect = replicate_stream(master_seed, r)
    for draw in ("random", "standard_exponential", "standard_normal"):
        assert np.array_equal(getattr(rng, draw)(7), getattr(expect, draw)(7)), draw
    assert np.array_equal(rng.standard_gamma(0.5, 9), expect.standard_gamma(0.5, 9))
