"""Large-n diagnostics for the exponential-scale record process: normalized
joint record limits, the perfect-dependence correlation trend, and the
o(n) decay of the selection estimator's risk rate.

The diagnostics need constant theta and use the exact record chain of
`montecarlo.record_chain` (record values advance by memoryless exponential
spacings; waiting times are conditionally geometric given the current record
level) with float record times, because streaming observations to the n-th
record needs on the order of e^n draws and the engine's int64 times overflow
past n ~ 44.  Any other scheme is a usage error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .errors import UsageError


@dataclass(frozen=True)
class RiskRatePoint:
    n: int
    risk: float
    se: float

    @property
    def rate(self) -> float:
        return self.risk / self.n


def _simulate(theta_model: montecarlo.ParameterSequenceModel, n: int, reps: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(values, prev values, log S(T_n)) of the n-th record for the
    exponential-base record process under constant theta, and that theta;
    prev values are 0 at n = 1.  Any other scheme is a usage error."""
    if theta_model.scheme != montecarlo.Scheme.CONSTANT:
        raise UsageError("the large-n diagnostics need constant theta, "
                         f"not the {theta_model.scheme.value} scheme")
    if n < 1 or reps < 1:
        raise UsageError(f"need n >= 1 and reps >= 1, got n = {n} and reps = {reps}")
    theta = theta_model.params["value"]
    # record levels (in units of theta) and float record times from one block
    # of standard exponential draws, a row per replicate as the engine's chain
    levels, times = montecarlo.record_chain(rng.standard_exponential((reps, 2 * n - 1)))
    prev = theta * levels[:, n - 2] if n > 1 else 0.0
    return theta * levels[:, n - 1], prev, np.log(times[:, n - 1] / theta), theta


def normalized_sample(theta_model: montecarlo.ParameterSequenceModel, n: int, reps: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays of the centered record pairs U*_n = U_n - log S(T_n) and
    U*_{n-1} = U_{n-1} - log S(T_n) (exponential-base norming) and of the
    normalized record time T* = (log S(T_n) - n)/sqrt(n)."""
    if n < 2:
        raise UsageError("need n >= 2 records for the joint diagnostics")
    curr, prev, log_s, _ = _simulate(theta_model, n, reps, rng)
    return curr - log_s, prev - log_s, (log_s - n) / math.sqrt(n)


def gumbel_cdf(x) -> np.ndarray:
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def gumbel_joint_cdf(y, z):
    """Limiting joint cdf of the centered record pair (current, previous)."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    base = np.exp(-np.exp(-np.minimum(y, z)))
    correction = 1.0 + (y > z) * (np.exp(-z) - np.exp(-y))
    out = base * correction
    return out if out.ndim else float(out)


def frechet_correlation(theta_model: montecarlo.ParameterSequenceModel, n: int, reps: int,
                        rng: np.random.Generator) -> float:
    """Sample correlation of the consecutive record pair on the exponential
    scale; tends to 1 (perfect positive dependence) as n grows."""
    if n < 2:
        raise UsageError("the record pair needs n >= 2")
    curr, prev, _, _ = _simulate(theta_model, n, reps, rng)
    return float(np.corrcoef(prev, curr)[0, 1])


def risk_rate(theta_model: montecarlo.ParameterSequenceModel, n_list, reps: int,
              rng: np.random.Generator) -> list[RiskRatePoint]:
    """Simulated risk of the spacing estimator at each n, for the risk/n
    decay diagnostic."""
    out = []
    for n in n_list:
        curr, prev, _, theta = _simulate(theta_model, int(n), reps, rng)
        sq = (curr - prev - theta) ** 2
        out.append(RiskRatePoint(int(n), float(sq.mean()),
                                 float(sq.std(ddof=1) / np.sqrt(sq.size))))
    return out
