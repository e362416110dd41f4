"""Command-line surface.

Subcommands: records, estimate, simulate, critvals, test, demo-rainfall.
Numeric output on stdout and in CSV files carries 6 significant digits;
JSON files retain full precision.  Every run writes a manifest recording the
resolved configuration, the master seed and input digests, and seeded runs
are byte-identical for any --threads value.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, datasets, estimators, families, montecarlo, output, records, stationarity
from .errors import DataError, NumericError, RecselError, UsageError, whole_number
from .output import fmt

DEFAULT_SEED = 20260810
DEFAULT_TABLE_REPS = 100000
DEFAULT_ALPHAS = (0.01, 0.025, 0.05, 0.1)
ESTIMATE_HEADER = ["n", "estimator_id", "estimate", "risk_estimate", "band_lo", "band_hi"]


def _non_negative_int(text: str) -> int:
    """argparse type of --seed and --threads: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_sequence(path: str, column: str | None = None) -> np.ndarray:
    """Read observations from a text file (one decimal per line, # comments
    ignored) or, with --column, from the named column of a CSV file."""
    try:
        return _read_sequence(Path(path), path, column)
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(_unreadable("input", path, exc)) from None


def _read_sequence(p: Path, path: str, column: str | None) -> np.ndarray:
    if column is None:
        # numpy's C parser reads the common file.  The value loop below is
        # the definition: it runs whenever that parser refuses the file
        # (invalid UTF-8 included), finds no values or splits a line into
        # several tokens, so it names the offending line and accepts every
        # spelling float() takes (1_000, non-ASCII digits).  ndmin=2 keeps a
        # one-line file of several tokens from passing as a column.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                parsed = np.loadtxt(p, dtype=float, comments="#", ndmin=2, encoding="utf-8")
            except ValueError:
                parsed = None
        if parsed is not None and parsed.shape[0] > 0 and parsed.shape[1] == 1:
            return parsed.ravel()
    values = []
    with open(p, newline="", encoding="utf-8") as fh:
        # (line number, cell): a text line up to its '#' comment, or a CSV
        # cell as it stands
        if column is None:
            cells = ((lineno, line.split("#", 1)[0]) for lineno, line in enumerate(fh, start=1))
            empty = f"{path} holds no values"
        else:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise DataError(f"column {column!r} not present in {path}")
            # line_num counts the blank lines DictReader skips
            cells = ((reader.line_num, row[column] or "") for row in reader)
            empty = f"column {column!r} of {path} holds no values"
        for lineno, cell in cells:
            cell = cell.strip()
            if not cell:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{path}:{lineno}: cannot parse {cell!r} as a number") from None
    if not values:
        raise DataError(empty)
    return np.asarray(values)


def _unreadable(what: str, path, exc: OSError | UnicodeDecodeError) -> str:
    if isinstance(exc, UnicodeDecodeError):
        return f"{what} file {path} is not UTF-8 text"
    return f"cannot read {what} file {path}: {exc.strerror or exc}"


def _read_text(what: str, path: str) -> str:
    """The text of a family, config or table file; a path that is missing,
    unreadable or not UTF-8 is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(_unreadable(what, path, exc)) from None


def _load_family(text: str) -> tuple[families.FamilySpec, Path | None]:
    """Accept inline JSON, a path to a JSON file, or the name of a bundled
    dataset family (currently 'lacc-rainfall-records')."""
    text = text.strip()
    if text == datasets.RAINFALL_DATASET:
        return datasets.rainfall_family(), None
    if text.startswith("{"):
        return families.from_json(text), None
    return families.from_json(_read_text("family", text)), Path(text)


def _load_table(path: str) -> stationarity.CriticalValueTable:
    """A critical value table file, JSON when its name ends in .json, else
    CSV: an unreadable path is a usage error, contents that are not a valid
    table a data error."""
    text = _read_text("table", path)
    try:
        return stationarity.CriticalValueTable.from_text(text, path.endswith(".json"))
    except DataError as exc:
        raise DataError(f"table file {path}: {exc}") from None


def _write_manifest(outdir: Path, subcommand: str, config: dict,
                    master_seed: int | None, inputs: list[Path], outputs: list[Path],
                    counters: dict | None = None) -> Path:
    digests = {str(p): _sha256(p) for p in inputs if p is not None and Path(p).exists()}
    doc = {
        "subcommand": subcommand,
        "config": config,
        "master_seed": master_seed,
        "tool_version": __version__,
        "input_digests": digests,
        # basenames: output files live beside the manifest, and recording
        # absolute paths would make reruns in fresh directories differ
        "outputs": [Path(p).name for p in outputs],
    }
    if counters is not None:
        doc["counters"] = counters  # seed-determined, so reruns stay identical
    path = outdir / "manifest.json"
    output.write_json(path, doc)
    return path


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_input(path: str) -> str:
    if path == datasets.RAINFALL_DATASET:
        return datasets.rainfall_records_path()
    return path


def _write_records(path: Path, rec: records.RecordSet) -> None:
    rows = [[i + 1, int(t), float(v)] for i, (t, v) in enumerate(zip(rec.times, rec.values))]
    output.write_csv(path, ["index", "time", "value"], rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_records(args) -> int:
    outdir = _outdir(args)
    in_path = _resolve_input(args.input)
    seq = _load_sequence(in_path, args.column)
    if args.family:
        family, fam_path = _load_family(args.family)
        if family.kind != families.Kind.GAMMA_TYPE:
            raise UsageError("records --family expects a gamma-type family (transformed records)")
        if args.direction != records.Direction.UPPER:
            raise UsageError("records --family extracts upper records only, not --direction lower")
        rec = records.canonical_records(seq, family)
    else:
        fam_path = None
        rec = records.extract_records(seq, args.direction)
    out_csv = outdir / "records.csv"
    _write_records(out_csv, rec)
    manifest = _write_manifest(outdir, "records",
                               {"input": str(in_path), "direction": str(args.direction),
                                "family": args.family, "column": args.column},
                               None, [Path(in_path)] + ([fam_path] if fam_path else []),
                               [out_csv])
    print(f"{len(rec)} records out of {rec.source_length} observations -> {out_csv}")
    print(f"manifest: {manifest}")
    return 0


def cmd_estimate(args) -> int:
    outdir = _outdir(args)
    in_path = _resolve_input(args.input)
    seq = _load_sequence(in_path, args.column)
    family, fam_path = _load_family(args.family)
    stationary = args.model == "stationary"
    canon = records.canonical_records(seq, family)
    if not stationary and len(canon) < 2:
        raise UsageError("fewer than 2 records: the nonstationary path needs at least two")
    reports = estimators.estimate_path(canon, family, stationary, args.band_factor)
    out_csv = outdir / "estimates.csv"
    output.write_csv(out_csv, ESTIMATE_HEADER, [r.to_csv_row() for r in reports])
    out_json = outdir / "estimates.json"
    output.write_json(out_json, [r.to_json_dict() for r in reports])
    manifest = _write_manifest(outdir, "estimate",
                               {"input": str(in_path), "family": families.to_json_dict(family),
                                "model": args.model, "band_factor": args.band_factor},
                               None, [Path(in_path)] + ([fam_path] if fam_path else []),
                               [out_csv, out_json])
    for r in reports:
        print(f"n={r.n} {r.estimator_id.value} estimate={fmt(r.estimate)} "
              f"risk={fmt(r.risk_estimate)} band=({fmt(r.band[0])}, {fmt(r.band[1])})")
    print(f"manifest: {manifest}")
    return 0


def _load_simulation_config(path: str, seed_override: int | None) -> tuple[montecarlo.SimulationConfig, list[int], dict]:
    """The config of a simulate run, with --seed in place of its master_seed
    when given, and the n rows its output keeps (n_values)."""
    try:
        doc = json.loads(_read_text("config", path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config JSON does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    seed = seed_override if seed_override is not None else doc.get("master_seed", DEFAULT_SEED)
    config = montecarlo.SimulationConfig.from_json_dict(dict(doc, master_seed=seed))
    n_values = doc.get("n_values", list(range(2, config.n_target + 1)))
    if not isinstance(n_values, list):
        raise UsageError(f"config n_values must be a list, got {n_values!r}")
    n_values = [whole_number("config n_values entry", n) for n in n_values] or [config.n_target]
    if not all(1 <= n <= config.n_target for n in n_values):
        raise UsageError(f"config n_values must lie in 1..n_target = {config.n_target}, got {n_values}")
    return config, n_values, doc


def _cell_list(cells) -> str:
    """Cells named by estimator and runs of n, as 'umvue_gamma n=1-3,5'."""
    runs: dict[str, list[list[int]]] = {}
    for c in cells:
        est = runs.setdefault(c.estimator.value, [])
        if est and est[-1][1] == c.n - 1:
            est[-1][1] = c.n
        else:
            est.append([c.n, c.n])
    return "; ".join(f"{name} n=" + ",".join(str(a) if a == b else f"{a}-{b}" for a, b in ns)
                     for name, ns in runs.items())


def cmd_simulate(args) -> int:
    outdir = _outdir(args)
    config, n_values, doc = _load_simulation_config(args.config, args.seed)
    summary = montecarlo.bias_risk_table(config, threads=args.threads)
    out_csv = outdir / "simulate_summary.csv"
    output.write_csv(out_csv, montecarlo.CSV_HEADER, summary.to_csv_rows(n_values))
    out_json = outdir / "simulate_summary.json"
    output.write_json(out_json, summary.to_json_dict())
    if config.replications == 1:
        print("warning: single replicate, standard errors undefined (reported as nan)",
              file=sys.stderr)
    bad = [c for c in summary.cells if not c.finite]
    if bad:
        departures = ", ".join(f"{k}={summary.counters[k]}" for k in (
            "truncated", "geometric_exponent_clamped", "white_noise_redraws"))
        print(f"warning: {len(bad)} of {len(summary.cells)} table cells are not finite "
              f"({_cell_list(bad)}); departures from the model: {departures}", file=sys.stderr)
    manifest = _write_manifest(outdir, "simulate",
                               {"config": doc, "master_seed": config.master_seed},
                               config.master_seed, [Path(args.config)], [out_csv, out_json],
                               counters=summary.counters)
    for c in summary.cells:
        if c.n in n_values:
            print(f"{c.estimator.value} n={c.n} bias={fmt(c.bias)} risk={fmt(c.risk)} "
                  f"se_bias={fmt(c.se_bias)} se_risk={fmt(c.se_risk)}")
    print(f"truncated fraction: {fmt(summary.truncation_fraction)}")
    print(f"manifest: {manifest}")
    return 0


def cmd_critvals(args) -> int:
    outdir = _outdir(args)
    if args.reps < 10000:
        print("warning: fewer than 1e4 replications; quantiles carry wide Monte Carlo error",
              file=sys.stderr)
    table = stationarity.critical_values(
        range(args.n_min, args.n_max + 1), args.alphas, args.reps, args.seed,
        threads=args.threads)
    out_csv = outdir / "critvals.csv"
    table.to_csv(out_csv)
    out_json = outdir / "critvals.json"
    table.to_json(out_json)
    manifest = _write_manifest(outdir, "critvals",
                               {"n_min": args.n_min, "n_max": args.n_max,
                                "alphas": list(args.alphas), "reps": args.reps},
                               args.seed, [], [out_csv, out_json])
    print("n " + " ".join(fmt(a) for a in table.alphas))
    for i, n in enumerate(table.n_values):
        print(f"{n} " + " ".join(fmt(float(q)) for q in table.quantiles[i]))
    print(f"manifest: {manifest}")
    return 0


def _run_test(canon: records.RecordSet, alpha: float, table_path: str | None, seed: int,
              reps: int, threads: int) -> dict:
    if len(canon) < 2:
        raise UsageError("fewer than 2 records: the test needs at least two")
    spacings = np.diff(np.concatenate(([0.0], canon.values)))
    T = stationarity.test_statistic(spacings)
    n = len(canon)
    if table_path:
        table = _load_table(table_path)
    else:
        table = stationarity.critical_values([n], DEFAULT_ALPHAS + (alpha,), reps, seed,
                                             threads=threads)
    decision = stationarity.decide(T, n, alpha, table)
    return {
        "T": T,
        "n": n,
        "alpha": alpha,
        "critical_value": table.cell(n, alpha),
        "decision": decision.value,
        "theta_hats": [float(s) for s in spacings],
        "table_replications": table.replications,
        "table_master_seed": table.master_seed,
    }


def cmd_test(args) -> int:
    outdir = _outdir(args)
    in_path = Path(_resolve_input(args.input))
    seq = _load_sequence(in_path, args.column)
    family, fam_path = _load_family(args.family)
    if family.kind == families.Kind.GAMMA_TYPE and family.shape_p != 1.0:
        # the null table is the law of T only for exponential canonical spacings
        raise UsageError(f"the test needs exponential spacings: gamma-type families "
                         f"need p = 1, got p = {fmt(family.shape_p)}")
    canon = records.canonical_records(seq, family)
    report = _run_test(canon, args.alpha, args.table, args.seed, args.reps, args.threads)
    out_json = outdir / "test_report.json"
    output.write_json(out_json, report)
    inputs = [in_path] + ([fam_path] if fam_path else []) + ([Path(args.table)] if args.table else [])
    manifest = _write_manifest(outdir, "test",
                               {"input": str(in_path), "family": families.to_json_dict(family),
                                "alpha": args.alpha, "table": args.table,
                                "table_reps": report["table_replications"],
                                "table_master_seed": report["table_master_seed"]},
                               args.seed, inputs, [out_json])
    print(f"T = {fmt(report['T'])} with n = {report['n']} records")
    print(f"t_n(alpha={fmt(args.alpha)}) = {fmt(report['critical_value'])}")
    print(f"decision: {report['decision']}")
    print(f"manifest: {manifest}")
    return 0


def cmd_demo_rainfall(args) -> int:
    outdir = _outdir(args)
    family = datasets.rainfall_family()
    in_path = Path(datasets.rainfall_records_path())
    seq = _load_sequence(in_path)
    rec = records.extract_records(seq, records.Direction.UPPER)
    canon = records.canonical_records(seq, family)
    # first, so that a bad --band-factor or --alpha exits before any file is written
    rows = [[label] + r.to_csv_row()
            for label, stationary in (("stationary", True), ("nonstationary", False))
            for r in estimators.estimate_path(canon, family, stationary, args.band_factor)]
    report = _run_test(canon, args.alpha, args.table, args.seed, args.reps, args.threads)

    out_records = outdir / "rainfall_records.csv"
    _write_records(out_records, rec)
    out_paths = outdir / "rainfall_estimates.csv"
    output.write_csv(out_paths, ["hypothesis"] + ESTIMATE_HEADER, rows)
    out_json = outdir / "rainfall_test.json"
    output.write_json(out_json, report)

    manifest = _write_manifest(outdir, "demo-rainfall",
                               {"dataset": datasets.RAINFALL_DATASET,
                                "family": families.to_json_dict(family),
                                "alpha": args.alpha, "band_factor": args.band_factor},
                               args.seed, [in_path], [out_records, out_paths, out_json])
    print(f"dataset: {datasets.RAINFALL_DATASET} ({len(rec)} records)")
    print(f"record values: " + " ".join(fmt(float(v)) for v in rec.values))
    print(f"T = {fmt(report['T'])}, t_{report['n']}({fmt(args.alpha)}) = "
          f"{fmt(report['critical_value'])} -> {report['decision']}")
    print("note: the goodness-of-fit p-value for the fitted cdf cannot be recomputed "
          "here because only the record sequence is bundled, not the raw 100-year series")
    print(f"outputs: {out_records} {out_paths} {out_json}")
    print(f"manifest: {manifest}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recsel",
        description="Record-value inference: record extraction, selection estimators, "
                    "Monte Carlo tables and the stationarity test.")
    parser.add_argument("--version", action="version", version=f"recsel {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seeded=True):
        p.add_argument("--out", default="recsel-out", help="output directory")
        p.add_argument("--threads", type=_non_negative_int, default=0,
                       help="worker threads for simulation engines, at most nproc "
                            "(0 = min(nproc, 8))")
        if seeded:
            p.add_argument("--seed", type=_non_negative_int, default=DEFAULT_SEED, help="master seed")

    p = sub.add_parser("records", help="extract record values from a sequence file")
    p.add_argument("--input", required=True, help="sequence file or bundled dataset name")
    p.add_argument("--direction", choices=["upper", "lower"], default="upper")
    p.add_argument("--family", default=None,
                   help="gamma-type family JSON: extract transformed records instead")
    p.add_argument("--column", default=None, help="read this column of a CSV file")
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_records)

    p = sub.add_parser("estimate", help="per-record parameter estimates with sigma bands")
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True, help="family JSON (inline or file) or dataset name")
    p.add_argument("--model", choices=["stationary", "nonstationary"], default="nonstationary")
    p.add_argument("--band-factor", type=float, default=estimators.DEFAULT_BAND_FACTOR)
    p.add_argument("--column", default=None)
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="bias/risk table from a simulation config")
    p.add_argument("--config", required=True, help="simulation config JSON file")
    add_common(p, seeded=False)
    p.add_argument("--seed", type=_non_negative_int, default=None, help="override the config master seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("critvals", help="simulate the critical value table")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--alphas", type=float, nargs="+", default=list(DEFAULT_ALPHAS))
    p.add_argument("--reps", type=int, default=DEFAULT_TABLE_REPS)
    add_common(p)
    p.set_defaults(func=cmd_critvals)

    p = sub.add_parser("test", help="stationarity test on a record sequence")
    p.add_argument("--input", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--table", default=None,
                   help="critical value table file (.csv or .json); regenerated when omitted")
    p.add_argument("--reps", type=int, default=DEFAULT_TABLE_REPS,
                   help="replications when regenerating the table")
    p.add_argument("--column", default=None)
    add_common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("demo-rainfall", help="full pipeline on the bundled rainfall records")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--band-factor", type=float, default=estimators.DEFAULT_BAND_FACTOR)
    p.add_argument("--table", default=None)
    p.add_argument("--reps", type=int, default=DEFAULT_TABLE_REPS)
    add_common(p)
    p.set_defaults(func=cmd_demo_rainfall)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.threads = min(args.threads or 8, os.cpu_count() or 1)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"usage error: {str(exc) or 'out of memory'}; lower the replication count",
              file=sys.stderr)
        return 2
    except RecselError as exc:  # pragma: no cover - base class fallback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
