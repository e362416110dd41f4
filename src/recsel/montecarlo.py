"""Monte Carlo engine: theta-sequence schemes, record-process simulation and
bias/risk tables for the selection estimators.

Replicate r always draws from an independent counter-based stream keyed by
(master_seed, r) and partial results are reduced in replicate order, so
summaries are bit-identical for any number of worker threads.  Constant-theta
hazard-family replicates are sampled as exact record chains; every other
config streams observations up to the n-th record.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import estimators, families
from .errors import DataError, NumericError, UsageError, check_array_size, finite_number, whole_number
from .records import record_mask
from .streams import replicate_stream

_FIRST_BLOCK = 64
_MAX_BLOCK = 16384  # blocks double up to this size, then stay: a long-block row holds ~1 MB
_BATCH_ELEMENTS = 4096  # observations per (rows x block) matrix, at least one row
_BATCH_ROWS = _BATCH_ELEMENTS // _FIRST_BLOCK  # replicates per batch
STREAM_LAYOUT = 3  # version of the replicate-to-stream mapping and block schedule
_MAX_TIME = 2**62  # latest record time a record chain stores in int64
MAX_TRUNCATION_FRACTION = 0.01


class Scheme(str, enum.Enum):
    AR_POSITIVE_ERROR = "ar_positive_error"
    STOCHASTIC_GEOMETRIC = "stochastic_geometric"
    WHITE_NOISE = "white_noise"
    CONSTANT = "constant"
    USER_SUPPLIED = "user_supplied"


def _positive(name, value):
    value = finite_number(name, value)
    if value <= 0:
        raise UsageError(f"{name} must be > 0, got {value!r}")
    return value


def _nonnegative(name, value):
    value = finite_number(name, value)
    if value < 0:
        raise UsageError(f"{name} must be >= 0, got {value!r}")
    return value


def _flag(name, value):
    if not isinstance(value, bool):
        raise UsageError(f"{name} must be true or false, got {value!r}")
    return value


def _positive_list(name, value):
    try:
        value = tuple(value)
    except TypeError:
        raise UsageError(f"{name} must be a list of numbers, got {value!r}") from None
    if not value:
        raise UsageError(f"{name} must not be empty")
    return tuple(_positive(name, t) for t in value)


# Each scheme's parameters: name -> (default, or None when required; check)
_SCHEME_PARAMS = {
    Scheme.AR_POSITIVE_ERROR: {},
    Scheme.STOCHASTIC_GEOMETRIC: {"redraw_per_index": (True, _flag)},
    Scheme.WHITE_NOISE: {"mean": (10.0, _positive), "sd": (1.0, _nonnegative)},
    Scheme.CONSTANT: {"value": (None, _positive)},
    Scheme.USER_SUPPLIED: {"thetas": (None, _positive_list)},
}


def _given(**params) -> dict:
    """The parameters passed as other than None; _SCHEME_PARAMS has the rest."""
    return {name: value for name, value in params.items() if value is not None}


@dataclass(frozen=True)
class ParameterSequenceModel:
    """Generator description for the positive parameter sequence theta_i.
    Construction fills in the scheme's defaults (_SCHEME_PARAMS) and checks
    every parameter's type and range."""

    scheme: Scheme
    params: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    def __post_init__(self):
        scheme = Scheme(self.scheme)
        table = _SCHEME_PARAMS[scheme]
        unknown = self.params.keys() - table.keys()
        if unknown:
            raise UsageError(f"unexpected parameters for {scheme.value}: {sorted(unknown)}")
        params = {}
        for name, (default, check) in table.items():
            if name not in self.params and default is None:
                raise UsageError(f"{scheme.value} scheme needs parameter {name!r}")
            params[name] = check(name, self.params.get(name, default))
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "params", MappingProxyType(params))

    @staticmethod
    def constant(value: float) -> "ParameterSequenceModel":
        return ParameterSequenceModel(Scheme.CONSTANT, {"value": value})

    @staticmethod
    def ar_positive_error() -> "ParameterSequenceModel":
        return ParameterSequenceModel(Scheme.AR_POSITIVE_ERROR)

    @staticmethod
    def stochastic_geometric(redraw_per_index: bool | None = None) -> "ParameterSequenceModel":
        return ParameterSequenceModel(Scheme.STOCHASTIC_GEOMETRIC, _given(redraw_per_index=redraw_per_index))

    @staticmethod
    def white_noise(mean: float | None = None, sd: float | None = None) -> "ParameterSequenceModel":
        return ParameterSequenceModel(Scheme.WHITE_NOISE, _given(mean=mean, sd=sd))

    @staticmethod
    def user_supplied(thetas) -> "ParameterSequenceModel":
        return ParameterSequenceModel(Scheme.USER_SUPPLIED, {"thetas": thetas})

    def to_json_dict(self) -> dict:
        return {"scheme": self.scheme.value, "params": dict(self.params)}

    @staticmethod
    def from_json_dict(doc: dict) -> "ParameterSequenceModel":
        """A theta model from its JSON document; a malformed one is a usage error."""
        try:
            return ParameterSequenceModel(Scheme(doc["scheme"]), dict(doc.get("params", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad theta model document: {exc}") from exc


def _affine_scan(mult: np.ndarray, add: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive scan of the affine recurrence x_i = mult_i * x_{i-1} + add_i
    along the last axis.

    Returns (A, C) with x_i = A_i * x_0 + C_i.  Affine composition is
    associative, so a logarithmic-depth pass replaces the sequential loop;
    each row of a 2-d input is scanned with the same association as alone.
    The inputs, C-contiguous float64 arrays, are overwritten: the scan works
    in them and in two buffers of their size, and A and C may be any two of
    those four.
    """
    A, C = mult, add
    A2, C2 = np.empty_like(A), np.empty_like(C)  # each step writes these, then they swap
    # flat views: a shift by step crosses rows only in the first step
    # columns of each row, which keep their values and are copied instead
    a, c, a2, c2 = (x.reshape(-1) for x in (A, C, A2, C2))
    step = 1
    while step < A.shape[-1]:
        hi, c_hi = a[step:], c2[step:]
        np.multiply(hi, c[:-step], c_hi)
        np.add(c_hi, c[step:], c_hi)
        np.multiply(hi, a[:-step], a2[step:])
        A2[..., :step] = A[..., :step]
        C2[..., :step] = C[..., :step]
        A, C, A2, C2, a, c, a2, c2 = A2, C2, A, C, a2, c2, a, c
        step *= 2
    return A, C


class ThetaStream:
    """Stateful sampler of theta sequences, one row per generator of `rngs`;
    take(k, rows) returns a (rows, k) block and continues each row where its
    previous call stopped.  Each row draws from its own generator in the
    order a stream of that generator alone would.
    """

    def __init__(self, model: ParameterSequenceModel, rngs):
        self.model = model
        self._rngs = list(rngs)
        m = len(self._rngs)
        self._index = np.zeros(m, dtype=np.int64)  # observations generated so far
        self._ar_prev = np.zeros(m)  # theta_0 = 0 for the autoregressive scheme
        self._geo_cd = np.full((2, m), np.nan)  # (c, d) once drawn, fixed-constant geometric
        # (rows, count) mask of the values the last take drew that left the
        # model, a geometric exponent clamped at 700 or a white-noise draw
        # <= 0 redrawn; None when there were none
        self.departed: np.ndarray | None = None
        if model.scheme == Scheme.USER_SUPPLIED:
            self._user = np.asarray(model.params["thetas"])

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
            out = np.full(shape, self.model.params["value"])
        elif scheme == Scheme.AR_POSITIVE_ERROR:
            z = np.empty(shape)
            eps = np.empty(shape)
            for rng, z_row, eps_row in zip(rngs, z, eps):
                rng.random(out=z_row)
                rng.standard_exponential(out=eps_row)
            out, C = _affine_scan(z, eps)  # scans in z and eps, which are not read again
            out *= self._ar_prev[rows, None]
            out += C
            self._ar_prev[rows] = out[:, -1]
        elif scheme == Scheme.STOCHASTIC_GEOMETRIC:
            if self.model.params["redraw_per_index"]:
                cd = np.empty((rows.size, 2, count))
                for rng, cd_row in zip(rngs, cd):
                    rng.random(out=cd_row)  # c then d, as two calls would draw them
                c, d = cd[:, 0], cd[:, 1]
            else:
                for i, rng in zip(rows, rngs):
                    if np.isnan(self._geo_cd[0, i]):
                        self._geo_cd[:, i] = rng.random(), rng.random()
                c, d = self._geo_cd[:, rows, None]
            # exponent (i - 1) log1p(d / 10), in place, capped to keep the engine
            # finite; it can first bind at i ~ 7.3e3, long after records usually end a replicate
            out = np.add(i0[:, None], np.arange(count), dtype=float)
            out *= np.log1p(d / 10.0)
            self._note(out > 700.0)
            np.minimum(out, 700.0, out=out)
            np.exp(out, out=out)
            out *= c
        elif scheme == Scheme.WHITE_NOISE:
            mean, sd = self.model.params["mean"], self.model.params["sd"]
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
        else:  # user-supplied
            need = int(i0.max()) + count
            if need > self._user.size:
                raise DataError(
                    f"user-supplied theta list exhausted: need {need}, have {self._user.size}")
            out = self._user[i0[:, None] + np.arange(count)]
        self._index[rows] += count
        return out

    def _note(self, hit: np.ndarray) -> None:
        if hit.any():
            self.departed = hit


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
        for name in ("n_target", "replications", "max_observations"):
            value = whole_number(name, getattr(self, name))
            if value < 1:
                raise UsageError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        check_array_size("replications x n_target", self.replications * self.n_target)

    @staticmethod
    def from_json_dict(doc: dict) -> "SimulationConfig":
        """A config from its JSON document; a malformed one is a usage error.
        Fields other than the constructor's are ignored."""
        try:
            return SimulationConfig(
                families.from_json_dict(doc["family"]),
                ParameterSequenceModel.from_json_dict(doc["theta_model"]),
                doc["n_target"], doc["replications"], doc["master_seed"],
                doc.get("max_observations", SimulationConfig.max_observations))
        except KeyError as exc:
            raise UsageError(f"config is missing field {exc}") from exc


@dataclass
class SimulationDraws:
    """Batch of replicates in matrix form; truncated rows carry NaN."""

    values: np.ndarray  # (replications, n_target) canonical record values
    thetas: np.ndarray  # theta at the record times
    times: np.ndarray  # record times (int64)
    truncated: np.ndarray  # bool per replicate
    observations: np.ndarray  # observations consumed per replicate
    geometric_exponent_clamped: int = 0  # used theta values with a clamped exponent
    white_noise_redraws: int = 0  # used theta values redrawn for being <= 0
    sampler: str = "stream"  # "stream" or "record_chain"

    @property
    def ok(self) -> np.ndarray:
        return ~self.truncated

    def counters(self) -> dict:
        """Seed-determined engine counters: observations consumed per
        replicate, truncated replicates, the theta values replicates used
        (up to their last observation) that left the model, by a clamped
        geometric exponent or a non-positive white-noise draw that was
        redrawn, the sampler that ran and the random-stream layout.  The
        percentiles are order statistics, pq the ceil(q n / 100)-th smallest
        of n (np.percentile would import numpy.ma, ~1 MB, for this alone)."""
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
            "sampler": self.sampler,
            "stream_layout": STREAM_LAYOUT,
        }


def _batch_streams(config: SimulationConfig, start: int, stop: int, pool: list) -> list:
    """Replicate streams of start..stop-1: row i gets pool[i], reset to its
    replicate stream; rows past the pool's end get new generators, which
    join it."""
    rngs = [replicate_stream(config.master_seed, r, pool[i] if i < len(pool) else None)
            for i, r in enumerate(range(start, stop))]
    pool[len(pool):] = rngs[len(pool):]
    return rngs


def _truncate(draws: SimulationDraws, rows: np.ndarray, observations: int) -> None:
    """Flag rows stopped after `observations` short of their n-th record."""
    draws.truncated[rows] = True
    draws.observations[rows] = observations
    draws.values[rows] = np.nan
    draws.thetas[rows] = np.nan
    draws.times[rows] = 0


def record_chain(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact record levels and record times of iid exponential observations,
    from standard exponential draws e of shape (rows, 2n - 1).

    Levels, in units of the observations' mean, cumulate the first n draws:
    records advance by memoryless Exp(1) spacings.  Given level L_k, the
    wait for the next record is geometric with success exp(-L_k), and draw
    n + k turns into it as 1 + floor(E / -log1p(-exp(-L_k))).  Times are 1
    plus the cumulated waits, in float64: they grow like e^n, past int64
    from n ~ 44 on.  A success probability that underflows to 0 gives an
    infinite wait, never NaN (Arnold, Balakrishnan & Nagaraja, Records,
    1998).
    """
    n = (e.shape[1] + 1) // 2
    levels = np.cumsum(e[:, :n], axis=1)
    times = np.ones_like(levels)
    with np.errstate(divide="ignore", over="ignore"):
        rate = -np.log1p(-np.exp(-levels[:, :-1]))
        waits = np.divide(e[:, n:], rate, out=np.full_like(rate, np.inf), where=rate > 0)
        np.cumsum(np.floor(waits) + 1.0, axis=1, out=times[:, 1:])
    times[:, 1:] += 1.0
    return levels, times


def _record_chain_rows(config: SimulationConfig, start: int, stop: int, draws: SimulationDraws,
                       pool: list):
    """Generator that samples replicates start..stop-1 of a constant-theta
    hazard-family config as exact record chains: each replicate stream gives
    one standard_exponential call of 2 n_target - 1 values, turned into
    record values and times by record_chain.  Equal in law to _simulate_rows,
    truncation included: a replicate whose n_target-th record comes after
    max_observations is truncated at that cap.  It has no long block, so it
    never yields None and never goes to a worker; it yields 0 departures,
    since a constant theta never departs from the model."""
    theta = config.theta_model.params["value"]
    e = np.empty((stop - start, 2 * config.n_target - 1))
    for rng, row in zip(_batch_streams(config, start, stop, pool), e):
        rng.standard_exponential(out=row)
    levels, times = record_chain(e)
    # no streaming run gets near 2^62 observations; later times do not fit int64
    cap = min(config.max_observations, _MAX_TIME)
    ok = times[:, -1] <= cap  # compared in float64, so an infinite time is truncated
    out = start + np.flatnonzero(ok)
    t = times[ok].astype(np.int64)
    draws.values[out] = theta * levels[ok]
    draws.thetas[out] = theta
    draws.times[out] = t
    draws.observations[out] = t[:, -1]
    _truncate(draws, start + np.flatnonzero(~ok), cap)
    yield 0


def _simulate_rows(config: SimulationConfig, start: int, stop: int, draws: SimulationDraws,
                   pool: list):
    """Generator that advances replicates start..stop-1 together through the
    block schedule until each reaches the n_target-th canonical record or
    max_observations; a user-supplied theta list that runs out first is a
    DataError.  It yields None before the first block of at least
    _BATCH_ELEMENTS observations, whose draw calls and ufuncs are long and
    release the GIL, so that the caller may resume it on a worker.  Last it
    yields how many theta values the rows used left the model (ThetaStream
    departures up to each row's last observation, counted block by block).

    Every live row shares the offset and block size.  A row draws from its
    own replicate stream in a fixed order per block (theta draws, then the
    canonical Gamma/exponential draws); unused tail draws of its final block
    are discarded, which affects nothing downstream.  Live rows go through
    each block in groups of at most _BATCH_ELEMENTS observations (one row
    when a block is longer).
    """
    n_target = config.n_target
    cap = config.max_observations
    if config.theta_model.scheme == Scheme.USER_SUPPLIED:
        cap = min(cap, len(config.theta_model.params["thetas"]))
    rngs = _batch_streams(config, start, stop, pool)
    theta_stream = ThetaStream(config.theta_model, rngs)
    gamma_kind = config.family.kind == families.Kind.GAMMA_TYPE
    shape_p = config.family.shape_p

    live = np.arange(stop - start)  # rows still short of the n_target-th record
    found = np.zeros(live.size, dtype=np.int64)
    extreme = np.full(live.size, -np.inf)
    departures = 0
    offset = 0
    block = _FIRST_BLOCK
    short = True  # no block of _BATCH_ELEMENTS observations yet
    while live.size and offset < cap:
        b = min(block, cap - offset)
        if short and b >= _BATCH_ELEMENTS:
            short = False
            yield
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
            last = rank == n_target - 1
            draws.observations[out[last]] = offset + rec_col[last] + 1
            found[rows] = np.minimum(found[rows] + per_row, n_target)
            hit = theta_stream.departed
            if hit is not None:
                # a row that ends here used its block up to its last record
                used = np.full(rows.size, b)
                used[rec_row[last]] = rec_col[last] + 1
                departures += int(np.count_nonzero(hit & (np.arange(b) < used[:, None])))
            # free this group's block before the next group draws its own
            del theta, y, mask, hit
        offset += b
        block = min(block * 2, _MAX_BLOCK)
        live = live[found[live] < n_target]
    if live.size and offset < config.max_observations:  # a user-supplied list ran out
        raise DataError(f"user-supplied theta list exhausted after {offset} observations "
                        f"before record {n_target}")
    _truncate(draws, start + live, offset)  # rows that hit max_observations first
    yield departures


def simulate_records(config: SimulationConfig, threads: int = 1) -> SimulationDraws:
    """All replicates as matrices; rows that hit max_observations before the
    n_target-th record are flagged truncated and NaN-filled.  Constant theta
    with a hazard family runs the exact record chain (_record_chain_rows),
    everything else streams observations (_simulate_rows), in batches of
    _BATCH_ROWS replicates.  The calling thread runs the short blocks of each
    batch and hands the rest of the batch to a worker while fewer than
    `threads` are out, else finishes it itself; a record chain batch is
    finished at once.  Finished batches lend their generators to later ones."""
    reps = config.replications
    n = config.n_target
    chain = (config.theta_model.scheme == Scheme.CONSTANT
             and config.family.kind != families.Kind.GAMMA_TYPE)
    sample_rows = _record_chain_rows if chain else _simulate_rows
    draws = SimulationDraws(
        values=np.full((reps, n), np.nan),
        thetas=np.full((reps, n), np.nan),
        times=np.zeros((reps, n), dtype=np.int64),
        truncated=np.zeros(reps, dtype=bool),
        observations=np.zeros(reps, dtype=np.int64),
        sampler="record_chain" if chain else "stream")
    spans = [(s, min(s + _BATCH_ROWS, reps)) for s in range(0, reps, _BATCH_ROWS)]
    workers = threads if threads and threads > 1 else 0
    free = []  # generator lists of finished batches, reset for later ones
    handed = {}  # future of a batch resumed on a worker -> its generators
    departures = 0
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as executor:
        for start, stop in spans:
            for future in [f for f in handed if f.done()]:
                departures += future.result()
                free.append(handed.pop(future))
            pool = free.pop() if free else []
            batch = sample_rows(config, start, stop, draws, pool)
            done = next(batch)
            if done is None:  # suspended before its first long block
                if len(handed) < workers:
                    handed[executor.submit(next, batch)] = pool
                    continue
                done = next(batch)
            departures += done
            free.append(pool)
        departures += sum(future.result() for future in handed)
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

    @property
    def finite(self) -> bool:
        """Bias, risk and, past one replicate, their standard errors are finite."""
        values = (self.bias, self.risk)
        if self.replications > 1:
            values += (self.se_bias, self.se_risk)
        return bool(np.isfinite(values).all())


@dataclass(frozen=True)
class SimulationSummary:
    """Bias and risk of each estimator at each record index."""

    cells: tuple[SummaryCell, ...]
    config: SimulationConfig
    truncation_fraction: float
    counters: dict  # SimulationDraws.counters of the run, plus non_finite_cells

    def to_csv_rows(self, n_values) -> list[list]:
        """Rows under CSV_HEADER, for the cells whose n is in n_values."""
        p = self.config.family.shape_p
        return [[self.config.theta_model.scheme.value, "" if p is None else p, c.n,
                 c.estimator.value, c.bias, c.risk, c.se_bias, c.se_risk]
                for c in self.cells if c.n in n_values]

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


def check_truncation(draws: SimulationDraws) -> float:
    """The fraction of truncated replicates, or a NumericError when it
    exceeds MAX_TRUNCATION_FRACTION: summaries leave truncated replicates
    out, which past that share would bias them without notice."""
    frac = int(np.count_nonzero(draws.truncated)) / draws.truncated.size
    if frac > MAX_TRUNCATION_FRACTION:
        raise NumericError(
            f"truncation fraction {frac:.3%} exceeds {MAX_TRUNCATION_FRACTION:.0%}; "
            f"raise max_observations")
    return frac


def bias_risk_table(config: SimulationConfig, threads: int = 1) -> SimulationSummary:
    """Simulated bias and risk of the family kind's estimators
    (estimators.ESTIMATORS) for n = 1..n_target.

    A cell may be inf or NaN, as when clamped geometric thetas near e^700
    square past float64; numpy's overflow warnings are silenced and the
    counters report how many cells are not finite (non_finite_cells)."""
    draws = simulate_records(config, threads=threads)
    frac = check_truncation(draws)
    ok = draws.ok
    n_ok = int(ok.sum())
    truncated = int(config.replications - n_ok)
    vals = draws.values[ok]
    ths = draws.thetas[ok]
    p = config.family.shape_p
    cells = []
    for est in estimators.ESTIMATORS[config.family.kind]:
        for n in range(1, config.n_target + 1):
            prev = vals[:, n - 2] if n > 1 else np.zeros(n_ok)
            curr = vals[:, n - 1]
            with np.errstate(over="ignore", invalid="ignore"):
                err = estimators.evaluate(est, prev, curr, p) - ths[:, n - 1]
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
    counters = draws.counters()
    counters["non_finite_cells"] = sum(not c.finite for c in cells)
    return SimulationSummary(tuple(cells), config, frac, counters)


def spacing_survival_check(config: SimulationConfig, y_grid, threads: int = 1) -> float:
    """Sup deviation over y_grid between the empirical survival of the last
    canonical record spacing and the memoryless mixture implied by the
    realized selected parameters.  Truncated replicates are left out, and
    check_truncation bounds how many there may be."""
    if config.family.kind == families.Kind.GAMMA_TYPE:
        raise UsageError("the spacing identity holds for hazard families")
    y = np.asarray(y_grid, dtype=float)
    draws = simulate_records(config, threads=threads)
    check_truncation(draws)
    ok = draws.ok
    curr = draws.values[ok, config.n_target - 1]
    prev = draws.values[ok, config.n_target - 2] if config.n_target > 1 else 0.0
    spacing = curr - prev
    theta_sel = draws.thetas[ok, config.n_target - 1]
    emp = (spacing[:, None] > y[None, :]).mean(axis=0)
    mix = np.exp(-y[None, :] / theta_sel[:, None]).mean(axis=0)
    return float(np.max(np.abs(emp - mix)))
