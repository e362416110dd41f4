"""Workload definitions: seeded input generation, the CLI invocations of one
round, and the output checks.

Every input is derived from the benchmark seed, so one seed always gives the
same configs and sequence files.  The program receives only those files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUNDLED_CONFIG = Path("src/recsel/data/configs/table1_scheme1_p05.json")

# cli-data: the sequence follows the bundled rainfall family,
# H(x) = (x - 4)^1.9, with record hazard spacings whose mean drifts upward
# over the file, as in the nonstationary setting the stationarity test is for.
RAINFALL_SHIFT = 4.0
RAINFALL_POWER = 1.9
# The records sit at fixed positions, so every seed has this many.  `test`
# keeps the parsed sequence while it simulates its null table in blocks of
# 131072 x (record count) doubles; with a fixed count it sets the peak RSS on
# every seed, above `records`, `estimate` and `critvals`.
CLI_DATA_RECORDS = 20
# Lines of the cli-data sequence: parsing is about a third of a `records`
# call, and a round of ten CLI processes stays within a 30 s run.
CLI_DATA_LINES = 500_000
PUBLISHED_RAINFALL_T = 358.89  # n - 1 normalisation, see README


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a round; `argv` omits --threads and --out."""

    label: str
    argv: tuple[str, ...]
    input_lines: int = 0


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for one input, keyed by (benchmark seed, *key)."""
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class SimWorkload:
    """`recsel simulate` on a config derived from the bundled Table-1 config.

    Round k simulates a fresh master seed derived from (seed, k), so the
    median over rounds averages the seed-dependent work as well as timing
    noise.  The config keeps the CLI's default `max_observations`, as users
    run it.  The table drops a replicate cut short by that cap, and the
    slowest replicates are those whose estimates err upward, so a low cap
    biases the UMVUE cells low: about one standard error at a cap of 10^4.
    """

    def __init__(self, name: str, tag: int, replications: int,
                 family: dict | None = None, theta_model: dict | None = None,
                 n_target: int | None = None, n_values: list[int] | None = None):
        self.name = name
        self.tag = tag
        self.replications = replications
        self.overrides = {k: v for k, v in (("family", family), ("theta_model", theta_model),
                                            ("n_target", n_target), ("n_values", n_values))
                          if v is not None}
        self.root = Path(".")
        self.work = Path(".")
        self.seed = 0
        self.cells: dict[int, list[dict]] = {}  # master seed -> UMVUE cells of its table

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed

    def config_doc(self, round_index: int) -> dict:
        doc = _read_json(self.root / BUNDLED_CONFIG)
        doc.update(self.overrides)
        doc["replications"] = self.replications
        doc["master_seed"] = derive_seed(self.seed, self.tag, round_index)
        return doc

    def write_inputs(self, round_index: int) -> Path:
        path = self.work / f"{self.name}-r{round_index}.json"
        path.write_text(json.dumps(self.config_doc(round_index), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    def invocations(self, round_index: int) -> list[Invocation]:
        config = self.write_inputs(round_index)
        return [Invocation("simulate", ("simulate", "--config", str(config)))]

    def check(self, inv: Invocation, outdir: Path) -> list[str]:
        """The table covers every replicate of the round's config; its UMVUE
        cells are kept for `check_run`."""
        summary = _read_json(outdir / "simulate_summary.json")
        problems = []
        if summary["replications"] != self.replications:
            problems.append(f"replications {summary['replications']} != {self.replications}")
        cells = [c for c in summary["cells"] if c["estimator"].startswith("umvue")]
        if [c["n"] for c in cells] != list(range(1, self.config_doc(0)["n_target"] + 1)):
            problems.append(f"UMVUE cells for n = {[c['n'] for c in cells]}")
        if not problems:
            self.cells[summary["master_seed"]] = cells
        return problems

    def check_run(self) -> list[str]:
        """Every UMVUE cell, pooled over the run's rounds, is unbiased within
        4 Monte Carlo standard errors.  A correct program fails such a test
        with probability about 6e-5, so one test per cell and run, rather
        than per round, keeps false failures rare over a sweep of many runs."""
        pooled: dict[tuple[str, int], list] = {}
        for cells in self.cells.values():
            for c in cells:
                pooled.setdefault((c["estimator"], c["n"]), []).append(
                    (c["replications"], c["bias"], c["se_bias"]))
        problems = []
        for (estimator, n), parts in sorted(pooled.items()):
            m = np.array([p[0] for p in parts], dtype=float)
            bias = float(np.dot(m, [p[1] for p in parts]) / m.sum())
            se = float(np.sqrt(np.dot(m**2, np.square([p[2] for p in parts]))) / m.sum())
            if not abs(bias) <= 4.0 * se:
                problems.append(f"{estimator} n={n} over {len(parts)} rounds: "
                                f"|bias| {bias:.4g} > 4 se {se:.4g}")
        return problems if pooled else ["no simulate table passed its checks"]

    def work_counters(self, round_index: int) -> dict:
        """Seed-determined work of round k, recomputed in-process (untimed)."""
        from recsel import families, montecarlo

        doc = self.config_doc(round_index)
        config = montecarlo.SimulationConfig(
            family=families.from_json_dict(doc["family"]),
            theta_model=montecarlo.ParameterSequenceModel.from_json_dict(doc["theta_model"]),
            n_target=doc["n_target"], replications=doc["replications"],
            master_seed=doc["master_seed"])
        return draws_counters(montecarlo.simulate_records(config, threads=1))


WORK_KEYS = ("obs_total", "obs_p50", "obs_p99", "obs_max", "top1pct_obs_share", "truncated",
             "replications")


def draws_counters(draws) -> dict:
    """Seed-determined work of a `SimulationDraws`, keyed by WORK_KEYS."""
    obs = np.sort(np.asarray(draws.observations, dtype=np.int64))
    top = obs[-max(1, obs.size // 100):]
    return {
        "obs_total": int(obs.sum()),
        "obs_p50": float(np.percentile(obs, 50)),
        "obs_p99": float(np.percentile(obs, 99)),
        "obs_max": int(obs[-1]),
        "top1pct_obs_share": float(top.sum() / obs.sum()),
        "truncated": int(np.count_nonzero(draws.truncated)),
        "replications": int(obs.size),
    }


class CliDataWorkload:
    """The data path: records, estimate and test on one generated sequence
    file, then critvals and demo-rainfall.  The file is generated once per
    run; every round repeats the same invocations."""

    name = "cli-data"
    tag = 4

    def __init__(self):
        self.seed = 0
        self.values = np.empty(0)
        self.seq_path = Path(".")

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        """Write the sequence file.  Records fall at CLI_DATA_RECORDS
        log-spaced positions, with exponential hazard spacings whose mean
        grows by a factor of e from first to last; every other observation
        is drawn uniformly in hazard below the running maximum."""
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, self.tag, 0))
        k = CLI_DATA_RECORDS
        times = np.rint(np.geomspace(1, CLI_DATA_LINES, k)).astype(np.int64)
        record_h = np.cumsum(np.exp(np.linspace(0.0, 1.0, k)) * rng.standard_exponential(k))
        # index of the last record at or before every position
        owner = np.searchsorted(times, np.arange(1, CLI_DATA_LINES + 1), side="right") - 1
        h = rng.random(CLI_DATA_LINES) * record_h[owner]
        h[times - 1] = record_h
        values = RAINFALL_SHIFT + h ** (1.0 / RAINFALL_POWER)
        # rounding must not lift a non-record above its running maximum
        self.values = np.minimum(values, values[times - 1][owner])
        self.seq_path = work / "cli-data-sequence.txt"
        with open(self.seq_path, "w", encoding="utf-8") as fh:
            fh.write(f"# perfbench cli-data seed={seed}\n")
            fh.write("\n".join(map(repr, self.values.tolist())))
            fh.write("\n")

    def invocations(self, round_index: int) -> list[Invocation]:
        seq = str(self.seq_path)
        lines = CLI_DATA_LINES + 1
        return [
            Invocation("records", ("records", "--input", seq), lines),
            Invocation("estimate", ("estimate", "--input", seq, "--family", "lacc-rainfall-records"), lines),
            Invocation("test", ("test", "--input", seq, "--family", "lacc-rainfall-records",
                                "--seed", str(derive_seed(self.seed, self.tag, 1))), lines),
            Invocation("critvals", ("critvals", "--n-min", "2", "--n-max", "10",
                                    "--seed", str(derive_seed(self.seed, self.tag, 2)))),
            Invocation("demo-rainfall", ("demo-rainfall",
                                         "--seed", str(derive_seed(self.seed, self.tag, 3)))),
        ]

    # -- independent recomputations ------------------------------------------

    def expected_records(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.values
        is_rec = np.empty(x.size, dtype=bool)
        is_rec[0] = True
        is_rec[1:] = x[1:] > np.maximum.accumulate(x)[:-1]
        times = np.flatnonzero(is_rec) + 1
        return times, x[times - 1]

    def expected_records_csv(self) -> str:
        times, values = self.expected_records()
        rows = [f"{i},{t},{format(float(v), '.6g')}"
                for i, (t, v) in enumerate(zip(times.tolist(), values.tolist()), start=1)]
        return "index,time,value\n" + "\n".join(rows) + "\n"

    def check(self, inv: Invocation, outdir: Path) -> list[str]:
        return getattr(self, "_check_" + inv.label.replace("-", "_"))(outdir)

    def _check_records(self, outdir: Path) -> list[str]:
        got = (outdir / "records.csv").read_text(encoding="utf-8")
        return [] if got == self.expected_records_csv() else ["records.csv differs from the recomputation"]

    def _hazard_spacings(self) -> np.ndarray:
        _, values = self.expected_records()
        h = (values - RAINFALL_SHIFT) ** RAINFALL_POWER
        return np.diff(np.concatenate(([0.0], h)))

    def _check_estimate(self, outdir: Path) -> list[str]:
        got = np.array([r["estimate"] for r in _read_json(outdir / "estimates.json")])
        want = self._hazard_spacings()
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9, atol=0.0):
            return ["estimates differ from the hazard spacings of the recomputed records"]
        return []

    def _check_test(self, outdir: Path) -> list[str]:
        report = _read_json(outdir / "test_report.json")
        problems = []
        # T from the written records: record times in records.csv index the
        # full-precision generated values
        times = np.loadtxt(outdir.parent / "records" / "records.csv", delimiter=",",
                           skiprows=1, usecols=1, dtype=np.int64, ndmin=1)
        h = (self.values[times - 1] - RAINFALL_SHIFT) ** RAINFALL_POWER
        spacings = np.diff(np.concatenate(([0.0], h)))
        ratios = spacings[1:] / spacings[:-1]
        T = float(np.mean((ratios - 1.0) ** 2))
        if report["n"] != times.size:
            problems.append(f"test n={report['n']} but records.csv has {times.size} records")
        if not math.isclose(report["T"], T, rel_tol=1e-9):
            problems.append(f"T {report['T']!r} != recomputed {T!r}")
        want = "reject" if report["T"] > report["critical_value"] else "fail_to_reject"
        if report["decision"] != want:
            problems.append(f"decision {report['decision']} inconsistent with T and t_n")
        return problems

    def _check_critvals(self, outdir: Path) -> list[str]:
        """Row n = 2 against the closed form t_2(a) = (1/a - 2)^2, within 4
        standard errors of the empirical quantile."""
        table = _read_json(outdir / "critvals.json")
        if table["n_values"] != list(range(2, 11)):
            return [f"critvals rows {table['n_values']}"]
        m = table["replications"]
        problems = []
        for a, q in zip(table["alphas"], table["quantiles"][0]):
            root_t = 1.0 / a - 2.0
            t = root_t**2
            density = 1.0 / ((2.0 + root_t) ** 2 * 2.0 * root_t)
            se = math.sqrt(a * (1.0 - a) / m) / density
            if abs(q - t) > 4.0 * se:
                problems.append(f"t_2({a}) = {q:.6g}, closed form {t:.6g} +- {se:.3g}")
        return problems

    def _check_demo_rainfall(self, outdir: Path) -> list[str]:
        report = _read_json(outdir / "rainfall_test.json")
        problems = []
        if abs(report["T"] - PUBLISHED_RAINFALL_T) > 0.01:
            problems.append(f"rainfall T {report['T']!r} != {PUBLISHED_RAINFALL_T}")
        if report["decision"] != "fail_to_reject":
            problems.append(f"rainfall decision {report['decision']}")
        return problems

    def work_counters(self, round_index: int) -> dict:
        times, _ = self.expected_records()
        return {"input_lines": CLI_DATA_LINES + 1, "records": int(times.size)}


# name -> factory; each run builds its own instance
WORKLOADS = {
    "sim-ar-heavy": lambda: SimWorkload("sim-ar-heavy", tag=1, replications=2_500),
    "sim-geo-short": lambda: SimWorkload(
        "sim-geo-short", tag=2, replications=10_000,
        theta_model={"scheme": "stochastic_geometric", "params": {"redraw_per_index": True}}),
    "sim-const-iid": lambda: SimWorkload(
        "sim-const-iid", tag=3, replications=10_000,
        family={"kind": "proportional_hazard", "member": "exponential"},
        theta_model={"scheme": "constant", "params": {"value": 1.0}},
        n_target=3, n_values=[2, 3]),
    "cli-data": CliDataWorkload,
}
