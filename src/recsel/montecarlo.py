"""Monte Carlo engine: theta-sequence schemes, record-process simulation and
bias/risk tables for the selection estimators.

Replicate r always draws from an independent counter-based stream keyed by
(master_seed, r) and partial results are reduced in replicate order, so
summaries are bit-identical for any number of worker threads.
"""

from __future__ import annotations

import enum
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import estimators, families
from .errors import DataError, NumericError, UsageError
from .records import record_mask
from .streams import replicate_stream

_FIRST_BLOCK = 64
_MAX_BLOCK = 65536
_CHUNK = 2048  # replicates per worker task, independent of worker count
_BATCH_ELEMENTS = 4096  # observations per (rows x block) matrix, at least one row
_BATCH_ROWS = _BATCH_ELEMENTS // _FIRST_BLOCK  # replicate streams held at once
STREAM_LAYOUT = 1  # version of the replicate-to-stream mapping
MAX_TRUNCATION_FRACTION = 0.01


class Scheme(str, enum.Enum):
    AR_POSITIVE_ERROR = "ar_positive_error"
    STOCHASTIC_GEOMETRIC = "stochastic_geometric"
    WHITE_NOISE = "white_noise"
    CONSTANT = "constant"
    USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True)
class ParameterSequenceModel:
    """Generator description for the positive parameter sequence theta_i."""

    scheme: Scheme
    params: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.scheme == Scheme.CONSTANT:
            if float(self.params.get("value", 0.0)) <= 0:
                raise UsageError("constant scheme needs value > 0")
        elif self.scheme == Scheme.USER_SUPPLIED:
            thetas = np.asarray(self.params.get("thetas", ()), dtype=float)
            if thetas.size == 0 or np.any(thetas <= 0):
                raise UsageError("user-supplied scheme needs a nonempty positive theta list")

    @staticmethod
    def constant(value: float) -> "ParameterSequenceModel":
        return ParameterSequenceModel(Scheme.CONSTANT, MappingProxyType({"value": float(value)}))

    @staticmethod
    def ar_positive_error() -> "ParameterSequenceModel":
        return ParameterSequenceModel(Scheme.AR_POSITIVE_ERROR)

    @staticmethod
    def stochastic_geometric(redraw_per_index: bool = True) -> "ParameterSequenceModel":
        return ParameterSequenceModel(
            Scheme.STOCHASTIC_GEOMETRIC, MappingProxyType({"redraw_per_index": bool(redraw_per_index)}))

    @staticmethod
    def white_noise(mean: float = 10.0, sd: float = 1.0) -> "ParameterSequenceModel":
        return ParameterSequenceModel(
            Scheme.WHITE_NOISE, MappingProxyType({"mean": float(mean), "sd": float(sd)}))

    @staticmethod
    def user_supplied(thetas) -> "ParameterSequenceModel":
        return ParameterSequenceModel(
            Scheme.USER_SUPPLIED, MappingProxyType({"thetas": tuple(float(t) for t in thetas)}))

    def to_json_dict(self) -> dict:
        return {"scheme": self.scheme.value, "params": dict(self.params)}

    @staticmethod
    def from_json_dict(doc: dict) -> "ParameterSequenceModel":
        try:
            scheme = Scheme(doc["scheme"])
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad theta model document: {exc}") from exc
        params = doc.get("params", {})
        if scheme == Scheme.USER_SUPPLIED:
            params = dict(params)
            params["thetas"] = tuple(float(t) for t in params.get("thetas", ()))
        return ParameterSequenceModel(scheme, MappingProxyType(dict(params)))


def _affine_scan(mult: np.ndarray, add: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive scan of the affine recurrence x_i = mult_i * x_{i-1} + add_i
    along the last axis.

    Returns (A, C) with x_i = A_i * x_0 + C_i.  Affine composition is
    associative, so a logarithmic-depth pass replaces the sequential loop;
    each row of a 2-d input is scanned with the same association as alone.
    """
    A = mult.astype(float, copy=True)
    C = add.astype(float, copy=True)
    step = 1
    n = A.shape[-1]
    while step < n:
        A_hi = A[..., step:]
        newA = A.copy()
        newC = C.copy()
        newA[..., step:] = A_hi * A[..., :-step]
        newC[..., step:] = C[..., step:] + A_hi * C[..., :-step]
        A, C = newA, newC
        step *= 2
    return A, C


class ThetaStream:
    """Stateful sampler of theta sequences; take(k) continues where the
    previous call stopped.

    Given one generator, take returns a 1-d block.  Given a list of
    generators it returns a (rows, k) block, one row per generator, and
    `rows` restricts a call to some of them.  Each row draws from its own
    generator in the order a stream of that generator alone would.
    """

    def __init__(self, model: ParameterSequenceModel, rng):
        self.model = model
        self._single = isinstance(rng, np.random.Generator)
        self._rngs = [rng] if self._single else list(rng)
        m = len(self._rngs)
        self._index = np.zeros(m, dtype=np.int64)  # observations generated so far
        self._ar_prev = np.zeros(m)  # theta_0 = 0 for the autoregressive scheme
        self._geo_cd = np.full((2, m), np.nan)  # (c, d) once drawn, fixed-constant geometric
        # (rows, count) mask of the values the last take drew that left the
        # model, a geometric exponent clamped at 700 or a white-noise draw
        # <= 0 redrawn; None when there were none
        self.departed: np.ndarray | None = None
        if model.scheme == Scheme.USER_SUPPLIED:
            self._user = np.asarray(model.params["thetas"], dtype=float)

    def take(self, count: int, rows=None) -> np.ndarray:
        if count <= 0:
            raise UsageError("take needs count >= 1")
        rows = np.arange(len(self._rngs)) if rows is None else np.asarray(rows)
        rngs = [self._rngs[i] for i in rows]
        scheme = self.model.scheme
        i0 = self._index[rows]
        shape = (rows.size, count)
        self.departed = None
        if scheme == Scheme.CONSTANT:
            out = np.full(shape, float(self.model.params["value"]))
        elif scheme == Scheme.AR_POSITIVE_ERROR:
            z = np.empty(shape)
            eps = np.empty(shape)
            for rng, z_row, eps_row in zip(rngs, z, eps):
                rng.random(out=z_row)
                rng.standard_exponential(out=eps_row)
            A, C = _affine_scan(z, eps)
            out = A * self._ar_prev[rows, None] + C
            self._ar_prev[rows] = out[:, -1]
        elif scheme == Scheme.STOCHASTIC_GEOMETRIC:
            idx = (i0[:, None] + np.arange(1, count + 1)).astype(float)
            if self.model.params.get("redraw_per_index", True):
                cd = np.empty((rows.size, 2, count))
                for rng, cd_row in zip(rngs, cd):
                    rng.random(out=cd_row)  # c then d, as two calls would draw them
                c, d = cd[:, 0], cd[:, 1]
            else:
                for i, rng in zip(rows, rngs):
                    if np.isnan(self._geo_cd[0, i]):
                        self._geo_cd[:, i] = rng.random(), rng.random()
                c, d = self._geo_cd[:, rows, None]
            # exponent capped to keep the engine finite; it can first bind at
            # i ~ 7.3e3, long after records usually end a replicate
            expo = (idx - 1.0) * np.log1p(d / 10.0)
            self._note(expo > 700.0)
            out = c * np.exp(np.minimum(expo, 700.0))
        elif scheme == Scheme.WHITE_NOISE:
            mean = float(self.model.params.get("mean", 10.0))
            sd = float(self.model.params.get("sd", 1.0))
            out = np.empty(shape)
            for rng, row in zip(rngs, out):
                rng.standard_normal(out=row)
            out = mean + sd * out
            nonpositive = out <= 0  # probability ~ 7.6e-24 per draw at the defaults
            self._note(nonpositive)
            for j in np.flatnonzero(nonpositive.any(axis=1)):
                row = out[j]
                while np.any(row <= 0):
                    bad = row <= 0
                    row[bad] = mean + sd * rngs[j].standard_normal(int(bad.sum()))
        elif scheme == Scheme.USER_SUPPLIED:
            need = int(i0.max()) + count
            if need > self._user.size:
                raise DataError(
                    f"user-supplied theta list exhausted: need {need}, have {self._user.size}")
            out = self._user[i0[:, None] + np.arange(count)]
        else:  # pragma: no cover
            raise UsageError(f"unknown scheme {scheme}")
        self._index[rows] += count
        return out[0] if self._single else out

    def _note(self, hit: np.ndarray) -> None:
        if hit.any():
            self.departed = hit

    def next(self) -> float:
        return float(self.take(1)[0])

    def remaining(self) -> int | None:
        """How many more values every row can produce (None = unbounded)."""
        if self.model.scheme == Scheme.USER_SUPPLIED:
            return self._user.size - int(self._index.max())
        return None


# ---------------------------------------------------------------------------
# replicate engine


@dataclass(frozen=True)
class SimulationConfig:
    family: families.FamilySpec
    theta_model: ParameterSequenceModel
    n_target: int
    replications: int
    master_seed: int
    max_observations: int = 10**7

    def __post_init__(self):
        seed = self.master_seed
        # a bool or float would pass int(); a negative seed has no stream keys
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise UsageError(f"master_seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "master_seed", int(seed))
        if self.n_target < 1:
            raise UsageError("n_target must be >= 1")
        if self.replications < 1:
            raise UsageError("replications must be >= 1")
        if self.max_observations < 1:
            raise UsageError("max_observations must be >= 1")


@dataclass
class SimulationDraws:
    """Batch of replicates in matrix form; truncated rows carry NaN."""

    values: np.ndarray  # (replications, n_target) canonical record values
    thetas: np.ndarray  # theta at the record times
    times: np.ndarray  # record times (int64)
    s_inv: np.ndarray  # cumulative 1/theta at the record times
    truncated: np.ndarray  # bool per replicate
    observations: np.ndarray  # observations consumed per replicate
    geometric_exponent_clamped: int = 0  # used theta values with a clamped exponent
    white_noise_redraws: int = 0  # used theta values redrawn for being <= 0

    @property
    def ok(self) -> np.ndarray:
        return ~self.truncated

    def counters(self) -> dict:
        """Seed-determined engine counters: observations consumed per
        replicate, truncated replicates, the theta values replicates used
        (up to their last observation) that left the model, by a clamped
        geometric exponent or a non-positive white-noise draw that was
        redrawn, and the random-stream layout.  The percentiles are order
        statistics, pq the ceil(q n / 100)-th smallest of n (np.percentile
        would import numpy.ma, ~1 MB, for this alone)."""
        obs = np.sort(self.observations)
        return {
            "observations_per_replicate": {
                "p50": int(obs[-(-50 * obs.size // 100) - 1]),
                "p99": int(obs[-(-99 * obs.size // 100) - 1]),
                "max": int(obs[-1]),
            },
            "truncated": int(np.count_nonzero(self.truncated)),
            "geometric_exponent_clamped": self.geometric_exponent_clamped,
            "white_noise_redraws": self.white_noise_redraws,
            "stream_layout": STREAM_LAYOUT,
        }


def _simulate_rows(config: SimulationConfig, start: int, stop: int, draws: SimulationDraws,
                   pool: list) -> int:
    """Replicates start..stop-1 advanced together through the block schedule
    until each reaches the n_target-th canonical record or max_observations;
    returns how many theta values they used left the model (ThetaStream
    departures up to each row's last observation, counted block by block).

    Every live row shares the offset and block size.  A row draws from its
    own replicate stream in a fixed order per block (theta draws, then the
    canonical Gamma/exponential draws); unused tail draws of its final block
    are discarded, which affects nothing downstream.  Live rows go through
    each block in groups of at most _BATCH_ELEMENTS observations (one row
    when a block is longer).  Row i draws from pool[i], reset to its replicate
    stream; rows past the pool's end get new generators, which join it.
    """
    n_target = config.n_target
    cap = config.max_observations
    rngs = [replicate_stream(config.master_seed, r, pool[i] if i < len(pool) else None)
            for i, r in enumerate(range(start, stop))]
    pool[len(pool):] = rngs[len(pool):]
    theta_stream = ThetaStream(config.theta_model, rngs)
    gamma_kind = config.family.kind == families.Kind.GAMMA_TYPE
    shape_p = config.family.shape_p

    live = np.arange(stop - start)  # rows still short of the n_target-th record
    found = np.zeros(live.size, dtype=np.int64)
    extreme = np.full(live.size, -np.inf)
    sinv_carry = np.zeros(live.size)
    departures = 0
    offset = 0
    block = _FIRST_BLOCK
    while live.size and offset < cap:
        b = min(block, cap - offset)
        left = theta_stream.remaining()
        if left is not None:
            if left == 0:
                raise DataError(
                    f"user-supplied theta list exhausted after {offset} observations "
                    f"before record {n_target}")
            b = min(b, left)
        group = max(1, _BATCH_ELEMENTS // b)
        for g in range(0, live.size, group):
            rows = live[g:g + group]
            theta = theta_stream.take(b, rows)
            y = np.empty_like(theta)
            for i, y_row in zip(rows, y):
                if gamma_kind:
                    rngs[i].standard_gamma(shape_p, out=y_row)
                else:
                    rngs[i].standard_exponential(out=y_row)
            y *= theta
            sinv = np.cumsum(1.0 / theta, axis=1)
            sinv += sinv_carry[rows, None]
            sinv_carry[rows] = sinv[:, -1]
            mask, extreme[rows] = record_mask(y, extreme[rows])
            # rank of each record within its row, then within its replicate
            rec_row, rec_col = np.nonzero(mask)
            per_row = np.count_nonzero(mask, axis=1)
            rank = np.arange(rec_row.size) - (np.cumsum(per_row) - per_row)[rec_row]
            rank += found[rows][rec_row]
            keep = rank < n_target
            rec_row, rec_col, rank = rec_row[keep], rec_col[keep], rank[keep]
            out = start + rows[rec_row]
            draws.values[out, rank] = y[rec_row, rec_col]
            draws.thetas[out, rank] = theta[rec_row, rec_col]
            draws.times[out, rank] = offset + rec_col + 1
            draws.s_inv[out, rank] = sinv[rec_row, rec_col]
            last = rank == n_target - 1
            draws.observations[out[last]] = offset + rec_col[last] + 1
            found[rows] = np.minimum(found[rows] + per_row, n_target)
            hit = theta_stream.departed
            if hit is not None:
                # a row that ends here used its block up to its last record
                used = np.full(rows.size, b)
                used[rec_row[last]] = rec_col[last] + 1
                departures += int(np.count_nonzero(hit & (np.arange(b) < used[:, None])))
        offset += b
        block = min(block * 2, _MAX_BLOCK)
        live = live[found[live] < n_target]
    out = start + live  # rows that hit max_observations first
    draws.truncated[out] = True
    draws.observations[out] = offset
    draws.values[out] = np.nan
    draws.thetas[out] = np.nan
    draws.s_inv[out] = np.nan
    draws.times[out] = 0
    return departures


def simulate_records(config: SimulationConfig, threads: int = 1) -> SimulationDraws:
    """All replicates as matrices; rows that hit max_observations before the
    n_target-th record are flagged truncated and NaN-filled."""
    reps = config.replications
    n = config.n_target
    draws = SimulationDraws(
        values=np.full((reps, n), np.nan),
        thetas=np.full((reps, n), np.nan),
        times=np.zeros((reps, n), dtype=np.int64),
        s_inv=np.full((reps, n), np.nan),
        truncated=np.zeros(reps, dtype=bool),
        observations=np.zeros(reps, dtype=np.int64))

    def do_chunk(start: int, stop: int) -> int:
        pool = []  # the task's generators, reset for each batch
        return sum(_simulate_rows(config, s, min(s + _BATCH_ROWS, stop), draws, pool)
                   for s in range(start, stop, _BATCH_ROWS))

    spans = [(s, min(s + _CHUNK, reps)) for s in range(0, reps, _CHUNK)]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            departures = sum(executor.map(lambda span: do_chunk(*span), spans))
    else:
        departures = sum(do_chunk(*span) for span in spans)
    if config.theta_model.scheme == Scheme.STOCHASTIC_GEOMETRIC:
        draws.geometric_exponent_clamped = departures
    elif config.theta_model.scheme == Scheme.WHITE_NOISE:
        draws.white_noise_redraws = departures
    return draws


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class SummaryCell:
    estimator: estimators.EstimatorId
    n: int
    bias: float
    risk: float
    se_bias: float
    se_risk: float
    replications: int
    truncated: int


@dataclass(frozen=True)
class SimulationSummary:
    """Bias and risk of each estimator at each record index."""

    cells: tuple[SummaryCell, ...]
    config: SimulationConfig
    truncation_fraction: float
    counters: dict  # SimulationDraws.counters of the run

    def cell(self, estimator: estimators.EstimatorId, n: int) -> SummaryCell:
        for c in self.cells:
            if c.estimator == estimator and c.n == n:
                return c
        raise UsageError(f"no cell for ({estimator}, n={n})")

    def to_csv_rows(self, scheme: str | None = None, p: float | None = None,
                    n_values=None) -> list[list]:
        scheme = scheme if scheme is not None else self.config.theta_model.scheme.value
        if p is None and self.config.family.kind == families.Kind.GAMMA_TYPE:
            p = self.config.family.shape_p
        rows = []
        for c in self.cells:
            if n_values is not None and c.n not in n_values:
                continue
            rows.append([scheme, "" if p is None else p, c.n, c.estimator.value,
                         c.bias, c.risk, c.se_bias, c.se_risk])
        return rows

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.config.theta_model.scheme.value,
            "family": families.to_json_dict(self.config.family),
            "replications": self.config.replications,
            "master_seed": self.config.master_seed,
            "truncation_fraction": self.truncation_fraction,
            "cells": [
                {"estimator": c.estimator.value, "n": c.n, "bias": c.bias, "risk": c.risk,
                 "se_bias": c.se_bias, "se_risk": c.se_risk,
                 "replications": c.replications, "truncated": c.truncated}
                for c in self.cells
            ],
        }


CSV_HEADER = ["scheme", "p", "n", "estimator", "bias", "risk", "se_bias", "se_risk"]


def default_estimators(family: families.FamilySpec) -> tuple[estimators.EstimatorId, ...]:
    if family.kind == families.Kind.GAMMA_TYPE:
        return (estimators.EstimatorId.UMVUE_GAMMA, estimators.EstimatorId.NATURAL_GAMMA)
    if family.kind == families.Kind.PROPORTIONAL_HAZARD:
        return (estimators.EstimatorId.UMVUE_PHR, estimators.EstimatorId.NATURAL_PHR)
    return (estimators.EstimatorId.UMVUE_PRHR, estimators.EstimatorId.NATURAL_PHR)


def _evaluate(estimator: estimators.EstimatorId, prev, curr, p):
    if estimator == estimators.EstimatorId.UMVUE_GAMMA:
        return estimators.umvue_gamma(prev, curr, p)
    if estimator == estimators.EstimatorId.NATURAL_GAMMA:
        return estimators.natural_gamma(curr, p)
    if estimator in (estimators.EstimatorId.UMVUE_PHR, estimators.EstimatorId.UMVUE_PRHR):
        return estimators.umvue_phr(prev, curr)
    if estimator == estimators.EstimatorId.NATURAL_PHR:
        return estimators.natural_phr(curr)
    raise UsageError(f"{estimator} is not a per-record selection estimator")


def bias_risk_table(config: SimulationConfig, estimator_ids=None,
                    threads: int = 1) -> SimulationSummary:
    """Simulated bias and risk of the chosen estimators for n = 1..n_target."""
    estimator_ids = tuple(estimator_ids or default_estimators(config.family))
    draws = simulate_records(config, threads=threads)
    ok = draws.ok
    n_ok = int(ok.sum())
    truncated = int(config.replications - n_ok)
    frac = truncated / config.replications
    if frac > MAX_TRUNCATION_FRACTION:
        raise NumericError(
            f"truncation fraction {frac:.3%} exceeds {MAX_TRUNCATION_FRACTION:.0%}; "
            f"raise max_observations")
    if n_ok == 0:
        raise NumericError("every replicate truncated")
    vals = draws.values[ok]
    ths = draws.thetas[ok]
    p = config.family.shape_p
    cells = []
    for est in estimator_ids:
        for n in range(1, config.n_target + 1):
            prev = vals[:, n - 2] if n > 1 else np.zeros(n_ok)
            curr = vals[:, n - 1]
            err = _evaluate(est, prev, curr, p) - ths[:, n - 1]
            sq = err * err
            bias = float(err.mean())
            risk = float(sq.mean())
            if n_ok > 1:
                se_bias = float(err.std(ddof=1) / np.sqrt(n_ok))
                se_risk = float(sq.std(ddof=1) / np.sqrt(n_ok))
            else:
                se_bias = float("nan")
                se_risk = float("nan")
            cells.append(SummaryCell(est, n, bias, risk, se_bias, se_risk, n_ok, truncated))
    return SimulationSummary(tuple(cells), config, frac, draws.counters())


def spacing_survival_check(config: SimulationConfig, y_grid, threads: int = 1) -> float:
    """Sup deviation over y_grid between the empirical survival of the last
    canonical record spacing and the memoryless mixture implied by the
    realized selected parameters."""
    if config.family.kind == families.Kind.GAMMA_TYPE:
        raise UsageError("the spacing identity holds for hazard families")
    if config.n_target < 1:
        raise UsageError("need n_target >= 1")
    y = np.asarray(y_grid, dtype=float)
    draws = simulate_records(config, threads=threads)
    ok = draws.ok
    curr = draws.values[ok, config.n_target - 1]
    prev = draws.values[ok, config.n_target - 2] if config.n_target > 1 else 0.0
    spacing = curr - prev
    theta_sel = draws.thetas[ok, config.n_target - 1]
    emp = (spacing[:, None] > y[None, :]).mean(axis=0)
    mix = np.exp(-y[None, :] / theta_sel[:, None]).mean(axis=0)
    return float(np.max(np.abs(emp - mix)))


def summary_to_csv(summary: SimulationSummary, path, n_values=None) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in summary.to_csv_rows(n_values=n_values):
            writer.writerow([_fmt(v) for v in row])


def summary_to_json(summary: SimulationSummary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".6g")
    return v
