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

from . import __version__, datasets, estimators, families, montecarlo, records, stationarity
from .errors import DataError, NumericError, RecselError, UsageError

DEFAULT_SEED = 20260810
DEFAULT_TABLE_REPS = 100000
DEFAULT_ALPHAS = (0.01, 0.025, 0.05, 0.1)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
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
    p = Path(path)
    if not p.exists():
        raise DataError(f"input file not found: {path}")
    try:
        return _read_sequence(p, path, column)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(_unreadable("input", path, exc)) from None


def _read_sequence(p: Path, path: str, column: str | None) -> np.ndarray:
    if column is not None:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise DataError(f"column {column!r} not present in {path}")
            values = []
            for lineno, row in enumerate(reader, start=2):
                cell = (row[column] or "").strip()
                if not cell:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: cannot parse {cell!r} as a number") from None
        if not values:
            raise DataError(f"column {column!r} of {path} holds no values")
        return np.asarray(values)
    # numpy's C parser reads the common file.  The per-line loop below is the
    # definition: it runs whenever that parser refuses the file (invalid UTF-8
    # included), finds no values or splits a line into several tokens, so it
    # names the offending line and accepts every spelling float() takes
    # (1_000, non-ASCII digits).  ndmin=2 keeps a one-line file of several
    # tokens from passing as a column.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            parsed = np.loadtxt(p, dtype=float, comments="#", ndmin=2, encoding="utf-8")
        except ValueError:
            parsed = None
    if parsed is not None and parsed.shape[0] > 0 and parsed.shape[1] == 1:
        return parsed.ravel()
    values = []
    with open(p, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: cannot parse {line!r} as a number") from None
    if not values:
        raise DataError(f"{path} holds no values")
    return np.asarray(values)


def _unreadable(what: str, path, exc: OSError | UnicodeDecodeError) -> str:
    if isinstance(exc, UnicodeDecodeError):
        return f"{what} file {path} is not UTF-8 text"
    return f"cannot read {what} file {path}: {exc.strerror or exc}"


def _load_family(text: str) -> tuple[families.FamilySpec, Path | None]:
    """Accept inline JSON, a path to a JSON file, or the name of a bundled
    dataset family (currently 'lacc-rainfall-records')."""
    text = text.strip()
    if text == datasets.RAINFALL_DATASET:
        return datasets.rainfall_family(), None
    if text.startswith("{"):
        return families.from_json(text), None
    p = Path(text)
    if not p.exists():
        raise UsageError(f"family file not found: {text}")
    try:
        doc = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(_unreadable("family", text, exc)) from None
    return families.from_json(doc), p


def _load_table(path: str) -> stationarity.CriticalValueTable:
    """A critical value table file: an unreadable path is a usage error,
    contents that do not parse as a table a data error."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"table file not found: {path}")
    try:
        return stationarity.CriticalValueTable.load(p)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(_unreadable("table", path, exc)) from None
    except (DataError, ValueError, TypeError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"table file {path}: {exc}") from None


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_input(path: str) -> str:
    if path == datasets.RAINFALL_DATASET:
        return datasets.dataset_path(path)
    return path


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
        rec = records.transformed_records(seq, family)
    else:
        fam_path = None
        rec = records.extract_records(seq, args.direction)
    rows = [[i + 1, int(t), float(v)] for i, (t, v) in enumerate(zip(rec.times, rec.values))]
    out_csv = outdir / "records.csv"
    _write_csv(out_csv, ["index", "time", "value"], rows)
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
    rows = [r.to_csv_row() for r in reports]
    out_csv = outdir / "estimates.csv"
    _write_csv(out_csv, ["n", "estimator_id", "estimate", "risk_estimate", "band_lo", "band_hi"], rows)
    out_json = outdir / "estimates.json"
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = _write_manifest(outdir, "estimate",
                               {"input": str(in_path), "family": families.to_json_dict(family),
                                "model": args.model, "band_factor": args.band_factor},
                               None, [Path(in_path)] + ([fam_path] if fam_path else []),
                               [out_csv, out_json])
    for r in reports:
        print(f"n={r.n} {r.estimator_id.value} estimate={_fmt(r.estimate)} "
              f"risk={_fmt(r.risk_estimate)} band=({_fmt(r.band[0])}, {_fmt(r.band[1])})")
    print(f"manifest: {manifest}")
    return 0


def _load_simulation_config(path: str, seed_override: int | None) -> tuple[montecarlo.SimulationConfig, list[int], dict]:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(_unreadable("config", path, exc)) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config JSON does not parse: {exc}") from exc
    try:
        family = families.from_json_dict(doc["family"])
        theta_model = montecarlo.ParameterSequenceModel.from_json_dict(doc["theta_model"])
        n_target = int(doc["n_target"])
        replications = int(doc["replications"])
    except KeyError as exc:
        raise UsageError(f"config is missing field {exc}") from exc
    master_seed = seed_override if seed_override is not None else doc.get("master_seed", DEFAULT_SEED)
    config = montecarlo.SimulationConfig(
        family=family, theta_model=theta_model, n_target=n_target,
        replications=replications, master_seed=master_seed,
        max_observations=int(doc.get("max_observations", 10**7)))
    n_values = [int(n) for n in doc.get("n_values", range(2, n_target + 1))] or [n_target]
    return config, n_values, doc


def cmd_simulate(args) -> int:
    outdir = _outdir(args)
    config, n_values, doc = _load_simulation_config(args.config, args.seed)
    summary = montecarlo.bias_risk_table(config, threads=args.threads)
    out_csv = outdir / "simulate_summary.csv"
    montecarlo.summary_to_csv(summary, out_csv, n_values=n_values)
    out_json = outdir / "simulate_summary.json"
    montecarlo.summary_to_json(summary, out_json)
    if config.replications == 1:
        print("warning: single replicate, standard errors undefined (reported as nan)",
              file=sys.stderr)
    manifest = _write_manifest(outdir, "simulate",
                               {"config": doc, "master_seed": config.master_seed},
                               config.master_seed, [Path(args.config)], [out_csv, out_json],
                               counters=summary.counters)
    for c in summary.cells:
        if c.n in n_values:
            print(f"{c.estimator.value} n={c.n} bias={_fmt(c.bias)} risk={_fmt(c.risk)} "
                  f"se_bias={_fmt(c.se_bias)} se_risk={_fmt(c.se_risk)}")
    print(f"truncated fraction: {_fmt(summary.truncation_fraction)}")
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
    header = "n " + " ".join(_fmt(a) for a in table.alphas)
    print(header)
    for i, n in enumerate(table.n_values):
        print(f"{n} " + " ".join(_fmt(float(q)) for q in table.quantiles[i]))
    print(f"manifest: {manifest}")
    return 0


def _stationarity_inputs(args) -> tuple[np.ndarray, families.FamilySpec, Path | None, Path]:
    in_path = Path(_resolve_input(args.input))
    seq = _load_sequence(in_path, getattr(args, "column", None))
    family, fam_path = _load_family(args.family)
    return seq, family, fam_path, in_path


def _run_test(seq, family, alpha: float, table_path: str | None, seed: int,
              reps: int, threads: int) -> dict:
    canon = records.canonical_records(seq, family)
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
    seq, family, fam_path, in_path = _stationarity_inputs(args)
    report = _run_test(seq, family, args.alpha, args.table, args.seed, args.reps, args.threads)
    out_json = outdir / "test_report.json"
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    inputs = [in_path] + ([fam_path] if fam_path else []) + ([Path(args.table)] if args.table else [])
    manifest = _write_manifest(outdir, "test",
                               {"input": str(in_path), "family": families.to_json_dict(family),
                                "alpha": args.alpha, "table": args.table,
                                "table_reps": report["table_replications"],
                                "table_master_seed": report["table_master_seed"]},
                               args.seed, inputs, [out_json])
    print(f"T = {_fmt(report['T'])} with n = {report['n']} records")
    print(f"t_n(alpha={_fmt(args.alpha)}) = {_fmt(report['critical_value'])}")
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

    rows = [[i + 1, int(t), float(v)] for i, (t, v) in enumerate(zip(rec.times, rec.values))]
    out_records = outdir / "rainfall_records.csv"
    _write_csv(out_records, ["index", "time", "value"], rows)

    paths = []
    for label, stationary in (("stationary", True), ("nonstationary", False)):
        reports = estimators.estimate_path(canon, family, stationary, args.band_factor)
        paths.append((label, reports))
    out_paths = outdir / "rainfall_estimates.csv"
    path_rows = []
    for label, reports in paths:
        for r in reports:
            path_rows.append([label, r.n, r.estimator_id.value, r.estimate,
                              r.risk_estimate, r.band[0], r.band[1]])
    _write_csv(out_paths, ["hypothesis", "n", "estimator_id", "estimate",
                           "risk_estimate", "band_lo", "band_hi"], path_rows)

    report = _run_test(seq, family, args.alpha, args.table, args.seed, args.reps, args.threads)
    out_json = outdir / "rainfall_test.json"
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    manifest = _write_manifest(outdir, "demo-rainfall",
                               {"dataset": datasets.RAINFALL_DATASET,
                                "family": families.to_json_dict(family),
                                "alpha": args.alpha, "band_factor": args.band_factor},
                               args.seed, [in_path], [out_records, out_paths, out_json])
    print(f"dataset: {datasets.RAINFALL_DATASET} ({len(rec)} records)")
    print(f"record values: " + " ".join(_fmt(float(v)) for v in rec.values))
    print(f"T = {_fmt(report['T'])}, t_{report['n']}({_fmt(args.alpha)}) = "
          f"{_fmt(report['critical_value'])} -> {report['decision']}")
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
        p.add_argument("--threads", type=int, default=0,
                       help="worker threads for simulation engines (0 = auto)")
        if seeded:
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="master seed")

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
    p.add_argument("--seed", type=_seed, default=None, help="override the config master seed")
    p.add_argument("--out", default="recsel-out")
    p.add_argument("--threads", type=int, default=0)
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
    if getattr(args, "threads", 0) == 0:
        args.threads = min(os.cpu_count() or 1, 8)
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
    except RecselError as exc:  # pragma: no cover - base class fallback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
