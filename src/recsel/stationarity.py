"""Scale-invariant stationarity test for record sequences.

The statistic averages squared relative jumps of the per-record parameter
estimates; under the stationary hypothesis the estimates behind it are iid
exponential, so the null distribution can be simulated from standard
exponential ratios and tabulated as quantiles t_n(alpha).
"""

from __future__ import annotations

import enum
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import output
from .errors import DataError, DomainError, UsageError
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
    ratios = th[1:] / th[:-1]
    return float(np.mean((ratios - 1.0) ** 2))


def _null_T_block(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_exponential((count, n))
    jumps = np.divide(z[:, 1:], z[:, :-1])  # the one (count, n - 1) buffer, squared in place
    jumps -= 1.0
    np.square(jumps, out=jumps)
    return np.mean(jumps, axis=1)


def upper_quantile(draws: np.ndarray, alpha: float) -> float:
    """Type-1 (ceiling order statistic) empirical upper-alpha quantile;
    interpolation is avoided because the right tail is heavy."""
    _check_alpha(alpha)
    return _sorted_quantile(np.sort(np.asarray(draws, dtype=float)), alpha)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie in (0, 1)")


def _sorted_quantile(draws: np.ndarray, alpha: float) -> float:
    """upper_quantile of draws already sorted ascending."""
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
        q = np.asarray(self.quantiles, dtype=float)
        object.__setattr__(self, "quantiles", q)
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if q.shape != (len(self.n_values), len(self.alphas)):
            raise DataError("quantile matrix shape mismatch")
        if np.any(q <= 0):
            raise DataError("critical values must be positive")
        if list(self.alphas) != sorted(self.alphas):
            raise DataError("alpha columns must be ascending")
        if len(self.alphas) > 1 and np.any(np.diff(q, axis=1) >= 0):
            # within a row t_n(alpha) falls as alpha grows
            raise DataError("critical values must decrease in alpha within each row")

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
    def from_csv(path) -> "CriticalValueTable":
        replications = 0
        master_seed = 0
        rows = []
        alphas = None
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("replications="):
                        replications = int(body.split("=", 1)[1])
                    elif body.startswith("master_seed="):
                        master_seed = int(body.split("=", 1)[1])
                    continue
                cells = [c.strip() for c in line.split(",")]
                if alphas is None:
                    if cells[0] != "n":
                        raise DataError("critical value table must start with an 'n' header row")
                    alphas = [float(a) for a in cells[1:]]
                else:
                    rows.append((int(cells[0]), [float(c) for c in cells[1:]]))
        if alphas is None or not rows:
            raise DataError("critical value table is empty")
        n_values = tuple(r[0] for r in rows)
        quantiles = np.array([r[1] for r in rows])
        return CriticalValueTable(n_values, tuple(alphas), quantiles, replications, master_seed)

    @staticmethod
    def from_json(path) -> "CriticalValueTable":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            return CriticalValueTable(
                tuple(doc["n_values"]), tuple(doc["alphas"]), np.array(doc["quantiles"]),
                int(doc.get("replications", 0)), int(doc.get("master_seed", 0)))
        except KeyError as exc:
            raise DataError(f"critical value table missing field {exc}") from exc

    @staticmethod
    def load(path) -> "CriticalValueTable":
        if str(path).endswith(".json"):
            return CriticalValueTable.from_json(path)
        return CriticalValueTable.from_csv(path)


def critical_values(n_values, alphas, replications: int, master_seed: int,
                    threads: int = 1) -> CriticalValueTable:
    """Simulate the null quantile table.  Each row n draws from its own
    counter-based stream keyed by (master_seed, row tag, n), so the table is
    bit-identical for any worker count."""
    n_values = tuple(int(n) for n in n_values)
    alphas = tuple(sorted({float(a) for a in alphas}))
    if not n_values or not alphas:
        raise UsageError("need at least one n row and one alpha column")
    if any(n < 2 for n in n_values):
        raise UsageError("rows need n >= 2")
    if len(set(n_values)) != len(n_values):
        raise UsageError("duplicate n rows")
    if replications < 1000:
        raise UsageError("need at least 1000 replications for quantile estimation")
    for a in alphas:
        _check_alpha(a)

    quantiles = np.empty((len(n_values), len(alphas)))

    def do_row(i: int) -> None:
        n = n_values[i]
        rng = substream(master_seed, _ROW_STREAM_TAG, n)
        draws = np.empty(replications)
        pos = 0
        while pos < replications:
            count = min(1 << 17, replications - pos)
            draws[pos:pos + count] = _null_T_block(n, count, rng)
            pos += count
        draws.sort()
        quantiles[i] = [_sorted_quantile(draws, a) for a in alphas]

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(do_row, range(len(n_values))))
    else:
        for i in range(len(n_values)):
            do_row(i)
    return CriticalValueTable(n_values, alphas, quantiles, replications, master_seed)


def decide(T: float, n: int, alpha: float, table: CriticalValueTable) -> Decision:
    """Reject stationarity iff T strictly exceeds t_n(alpha)."""
    t = table.cell(n, alpha)
    return Decision.REJECT if T > t else Decision.FAIL_TO_REJECT
