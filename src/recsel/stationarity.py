"""Scale-invariant stationarity test for record sequences.

The statistic averages squared relative jumps of the per-record parameter
estimates; under the stationary hypothesis the estimates behind it are iid
exponential, so the null distribution can be simulated from standard
exponential ratios and tabulated as quantiles t_n(alpha).
"""

from __future__ import annotations

import csv
import enum
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import output
from .errors import DataError, DomainError, UsageError, check_array_size, whole_number
from .streams import substream

_ROW_STREAM_TAG = 7001  # stream namespace for per-row null simulation


class Decision(str, enum.Enum):
    REJECT = "reject"
    FAIL_TO_REJECT = "fail_to_reject"


def test_statistic(theta_hats) -> float:
    """Mean squared relative jump of consecutive estimates; zero iff the
    estimate path is flat.  Scale invariant by construction."""
    th = np.asarray(theta_hats, dtype=float)
    if th.ndim != 1 or th.size < 2:
        raise UsageError("need at least two estimates")
    if np.any(th <= 0) or not np.all(np.isfinite(th)):
        raise DomainError("estimates must be positive and finite")
    return float(_mean_squared_jump(th))


def _mean_squared_jump(th: np.ndarray) -> np.ndarray:
    """T along the last axis of th: the mean of (th[k+1]/th[k] - 1)**2."""
    jumps = np.divide(th[..., 1:], th[..., :-1])  # the one buffer, squared in place
    jumps -= 1.0
    np.square(jumps, out=jumps)
    return np.mean(jumps, axis=-1)


def _null_T_block(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return _mean_squared_jump(rng.standard_exponential((count, n)))


def _check_axes(n_values, alphas, error) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The rows and columns of a table as tuples: row labels n are distinct
    whole numbers >= 2, alphas ascend in (0, 1); anything else is `error`."""
    n_values = tuple(whole_number("table row n", n, error) for n in n_values)
    if not n_values or not alphas:
        raise error("need at least one n row and one alpha column")
    if min(n_values) < 2:
        raise error("rows need n >= 2")
    if len(set(n_values)) != len(n_values):
        raise error("duplicate n rows")
    for a in alphas:
        if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0.0 < a < 1.0:
            raise error(f"alpha must lie in (0, 1), got {a!r}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise error("alpha columns must ascend")
    return n_values, tuple(float(a) for a in alphas)


def _sorted_quantile(draws: np.ndarray, alpha: float) -> float:
    """Type-1 (ceiling order statistic) empirical upper-alpha quantile of
    draws sorted ascending; interpolation is avoided because the right tail
    is heavy."""
    m = draws.size
    # tolerance guards m*(1-alpha) landing epsilon above an integer
    k = int(math.ceil(m * (1.0 - alpha) - 1e-9))
    k = min(max(k, 1), m)
    return float(draws[k - 1])


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated upper-alpha quantiles t_n(alpha) of the null statistic."""

    n_values: tuple[int, ...]
    alphas: tuple[float, ...]
    quantiles: np.ndarray  # shape (len(n_values), len(alphas))
    replications: int
    master_seed: int

    def __post_init__(self):
        """Every invariant of a table, each broken one a data error."""
        n_values, alphas = _check_axes(self.n_values, self.alphas, DataError)
        try:
            q = np.asarray(self.quantiles, dtype=float)
        except (TypeError, ValueError):
            raise DataError("quantiles must be a matrix of numbers") from None
        if q.shape != (len(n_values), len(alphas)):
            raise DataError("quantile matrix shape mismatch")
        if not np.all(np.isfinite(q) & (q > 0)):
            raise DataError("critical values must be finite and > 0")
        if np.any(np.diff(q, axis=1) >= 0):
            # within a row t_n(alpha) falls as alpha grows
            raise DataError("critical values must decrease in alpha within each row")
        for name in ("replications", "master_seed"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), DataError))
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "quantiles", q)

    def cell(self, n: int, alpha: float) -> float:
        try:
            i = self.n_values.index(int(n))
        except ValueError:
            raise UsageError(f"table has no row for n = {n}") from None
        for j, a in enumerate(self.alphas):
            if math.isclose(a, alpha, rel_tol=0.0, abs_tol=1e-12):
                return float(self.quantiles[i, j])
        raise UsageError(f"table has no column for alpha = {alpha}")

    def to_csv(self, path) -> None:
        output.write_csv(path, ["n", *self.alphas],
                         [[n, *row] for n, row in zip(self.n_values, self.quantiles.tolist())],
                         {"replications": self.replications, "master_seed": self.master_seed})

    def to_json(self, path) -> None:
        output.write_json(path, {
            "n_values": list(self.n_values),
            "alphas": list(self.alphas),
            "quantiles": self.quantiles.tolist(),
            "replications": self.replications,
            "master_seed": self.master_seed,
        })

    @staticmethod
    def from_text(text: str, is_json: bool) -> "CriticalValueTable":
        """A table from the text of its JSON document (to_json) or CSV file
        (to_csv: '# key=value' lines, where replications and master_seed
        default to 0, then an 'n' header row of alphas and a row per n)."""
        try:
            if is_json:
                doc = json.loads(text)
                return CriticalValueTable(
                    tuple(doc["n_values"]), tuple(doc["alphas"]), doc["quantiles"],
                    doc.get("replications", 0), doc.get("master_seed", 0))
            lines = [line.strip() for line in text.splitlines()]
            notes = [line[1:].strip() for line in lines if line.startswith("#")]
            meta = dict(note.split("=", 1) for note in notes if "=" in note)
            rows = list(csv.reader(line for line in lines if line and not line.startswith("#")))
            if not rows or rows[0][0].strip() != "n":
                raise DataError("critical value table must start with an 'n' header row")
            return CriticalValueTable(
                tuple(int(r[0]) for r in rows[1:]), tuple(float(a) for a in rows[0][1:]),
                [[float(c) for c in r[1:]] for r in rows[1:]],
                int(meta.get("replications", 0)), int(meta.get("master_seed", 0)))
        except KeyError as exc:
            raise DataError(f"critical value table missing field {exc}") from None
        except (csv.Error, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise DataError(f"not a critical value table: {exc}") from None


def critical_values(n_values, alphas, replications: int, master_seed: int,
                    threads: int = 1) -> CriticalValueTable:
    """Simulate the null quantile table.  Each row n draws from its own
    counter-based stream keyed by (master_seed, row tag, n), so the table is
    bit-identical for any worker count."""
    n_values, alphas = _check_axes(n_values, sorted(set(alphas)), UsageError)
    if replications < 1000:
        raise UsageError("need at least 1000 replications for quantile estimation")
    check_array_size("replications", replications)

    quantiles = np.empty((len(n_values), len(alphas)))

    def do_row(i: int) -> None:
        n = n_values[i]
        rng = substream(master_seed, _ROW_STREAM_TAG, n)
        # at most 2**21 values a block: standard_exponential fills in C
        # order, so the split does not change the draws
        block = min(1 << 17, max(1, (1 << 21) // n))
        draws = np.empty(replications)
        for pos in range(0, replications, block):
            draws[pos:pos + block] = _null_T_block(n, min(block, replications - pos), rng)
        draws.sort()
        quantiles[i] = [_sorted_quantile(draws, a) for a in alphas]

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        list(pool.map(do_row, range(len(n_values))))
    return CriticalValueTable(n_values, alphas, quantiles, replications, master_seed)


def decide(T: float, n: int, alpha: float, table: CriticalValueTable) -> Decision:
    """Reject stationarity iff T strictly exceeds t_n(alpha)."""
    t = table.cell(n, alpha)
    return Decision.REJECT if T > t else Decision.FAIL_TO_REJECT
