"""The recsel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the checkout's
own `src/recsel`; nothing is installed.  Workloads are defined in
workloads.py, metric names and units in BENCHMARK.json.

--trace 0 runs each CLI invocation of the workload in a fresh interpreter,
as users run it, once at the default --threads and once at --threads 1,
and repeats such rounds for about S seconds.  It reports the end-to-end
metrics: medians over rounds of the summed invocation wall times, the median
interpreter set-up time and the peak RSS of any CLI child process.

--trace 1 calls `recsel.cli.main` in-process instead, once untraced and once
with every public function of the recsel layers wrapped in span recorders
(spans.py), at both thread settings, and reports the per-layer metrics.

Every invocation's outputs are checked (workloads.py) and compared bytewise
between the two thread settings.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics; earlier lines carry the
machine facts and the seed-determined work of each round.  Without a
runnable `src/recsel` the command exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from workloads import WORK_KEYS, WORKLOADS, draws_counters
import spans

IMPORTTIME_REPEATS = 3
SETUP_EVERY = 2  # one set-up sample before every second invocation of the run
INVOCATION_TIMEOUT_S = 150
DEFAULT = "default"  # the thread setting users get: --threads omitted
SETUP_CODE = "import recsel.cli; recsel.cli.build_parser(); print(recsel.cli.__file__)"


class SetupFailed(Exception):
    """The checkout cannot run the benchmark at all."""


def default_threads() -> int:
    """The CLI's own default for --threads 0."""
    return min(os.cpu_count() or 1, 8)


def machine_facts() -> dict:
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": read("/proc/loadavg").strip(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


class Bench:
    def __init__(self, root: Path, workload_name: str, seconds: float):
        self.root = root
        self.src = root / "src"
        self.seconds = seconds
        self.workload = WORKLOADS[workload_name]()
        self.work = root / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.attempted = 0
        self.failed = 0
        self.invoked = 0  # workload invocations started (each runs at both thread settings)
        self.threads = default_threads()
        self.last_tracers: dict = {}

    # -- helpers ---------------------------------------------------------------

    def record(self, what: str, problems: list[str]) -> None:
        """Count one attempted operation; it failed when `problems` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=self.env, cwd=self.root,
                              capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)

    def preflight(self) -> None:
        if not (self.src / "recsel" / "cli.py").is_file():
            raise SetupFailed(f"no recsel sources under {self.src}")

    def setup_time(self) -> float:
        """Fresh-interpreter time to import recsel.cli and build its parser."""
        t0 = time.perf_counter()
        proc = self.python("-c", SETUP_CODE)
        elapsed = time.perf_counter() - t0
        where = Path(proc.stdout.strip() or ".").resolve()
        if proc.returncode != 0 or self.src.resolve() not in where.parents:
            raise SetupFailed(f"recsel.cli does not import from {self.src}: {proc.stderr.strip()}")
        return elapsed

    def import_ms(self) -> dict:
        """Cumulative import time of the recsel package and of scipy.stats,
        from `python -X importtime`."""
        runs = []
        for _ in range(IMPORTTIME_REPEATS):
            proc = self.python("-X", "importtime", "-c", "import recsel.cli")
            if proc.returncode != 0:
                raise SetupFailed(proc.stderr.strip())
            runs.append({f"setup.import_ms.{package}": top_import_us(proc.stderr, package) / 1e3
                         for package in ("recsel", "scipy.stats")})
        return {key: statistics.median(r[key] for r in runs) for key in runs[0]}

    def outdir(self, round_index: int, setting, label: str) -> Path:
        return self.work / f"r{round_index}" / f"t{setting}" / label

    @staticmethod
    def thread_args(setting) -> list[str]:
        return [] if setting == DEFAULT else ["--threads", str(setting)]

    def settings(self, round_index: int) -> tuple:
        # alternate which setting runs first, so drift does not favour one
        return (DEFAULT, 1) if round_index % 2 == 0 else (1, DEFAULT)

    def check_round(self, round_index: int, invocations, exit_ok: dict) -> None:
        """Output checks per invocation, then the bytewise comparison of the
        default-thread outputs with the --threads 1 outputs."""
        for inv in invocations:
            for setting in (DEFAULT, 1):
                outdir = self.outdir(round_index, setting, inv.label)
                what = f"{inv.label} --threads {setting} (round {round_index})"
                if not exit_ok[setting, inv.label]:
                    self.record(what, ["non-zero exit or exception"])
                    continue
                try:
                    problems = self.workload.check(inv, outdir)
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"output unreadable: {exc!r}"]
                if setting == DEFAULT and not problems and exit_ok[1, inv.label]:
                    problems = differing_files(outdir, self.outdir(round_index, 1, inv.label))
                self.record(what, problems)

    def rounds(self, run_round) -> list:
        """Repeat rounds while the next one, taken to last as long as the
        median round so far, still ends within the measuring time; at least
        one.  The median, not the slowest: a round that draws a straggler
        replicate would otherwise cut the run to a round or two, and the
        median over rounds needs several to set such a round aside."""
        results = []
        durations = []
        start = time.perf_counter()
        while not results or time.perf_counter() - start + statistics.median(durations) <= self.seconds:
            t0 = time.perf_counter()
            results.append(run_round(len(results)))
            durations.append(time.perf_counter() - t0)
            shutil.rmtree(self.work / f"r{len(results) - 1}", ignore_errors=True)
        return results

    # -- trace 0: fresh processes -------------------------------------------------

    def spawn(self, argv: list[str], outdir: Path) -> tuple[float, bool]:
        outdir.parent.mkdir(parents=True, exist_ok=True)
        with open(outdir.with_suffix(".log"), "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "recsel.cli", *argv], env=self.env,
                                    cwd=self.root, stdout=log, stderr=subprocess.STDOUT)
            # a blocking wait with a watchdog: Popen.wait(timeout) polls every
            # 50 ms, which would round every measured time up to that step
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            watchdog.start()
            code = proc.wait()
            dt = time.perf_counter() - t0
            watchdog.cancel()
            watchdog.join()
        return dt, code == 0

    def process_round(self, round_index: int) -> dict:
        invocations = self.workload.invocations(round_index)
        setup = []
        wall = {DEFAULT: 0.0, 1: 0.0}
        exit_ok = {}
        for inv in invocations:
            # set-up samples interleave with the invocations, so that both
            # see the same phases of machine load
            if self.invoked % SETUP_EVERY == 0:
                setup.append(self.setup_time())
            self.invoked += 1
            for setting in self.settings(round_index):
                outdir = self.outdir(round_index, setting, inv.label)
                dt, ok = self.spawn(list(inv.argv) + self.thread_args(setting) + ["--out", str(outdir)],
                                    outdir)
                wall[setting] += dt
                exit_ok[setting, inv.label] = ok
        self.check_round(round_index, invocations, exit_ok)
        return {"setup_s": setup, "wall_s": wall[DEFAULT], "wall_s.t1": wall[1]}

    def end_to_end(self) -> dict:
        walls = self.rounds(self.process_round)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest of any child
        work = self.work_counters(len(walls))
        print(json.dumps({"rounds": [dict(w, **c) for w, c in zip(walls, work)]}))
        measured = {key: statistics.median(w[key] for w in walls) for key in ("wall_s", "wall_s.t1")}
        measured["setup_s"] = statistics.median(x for w in walls for x in w["setup_s"])
        measured["peak_rss_mb"] = peak_kb / 1024.0
        return measured

    def work_counters(self, rounds: int) -> list[dict]:
        """Seed-determined work of every round, computed after timing ends."""
        sys.path.insert(0, str(self.src))
        return [self.workload.work_counters(k) for k in range(rounds)]

    # -- trace 1: in-process, traced -----------------------------------------------

    def call_main(self, argv: list[str]) -> tuple[float, bool]:
        from recsel import cli

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a traceback is a failed invocation, not a crash of the benchmark
                dt = time.perf_counter() - t0
                print(traceback.format_exc(), file=sys.__stderr__)
                return dt, False
            return time.perf_counter() - t0, code == 0

    def inprocess_pass(self, round_index: int, setting, invocations, tracer) -> tuple[float, dict]:
        """All invocations of a round in-process; traced when `tracer` is given.
        Only the traced pass writes to the outputs that are checked."""
        wall = 0.0
        exit_ok = {}
        if tracer is not None:
            tracer.install()
        try:
            for request, inv in enumerate(invocations, start=1):
                outdir = self.outdir(round_index, setting, inv.label)
                if tracer is None:
                    outdir = outdir.with_name(inv.label + ".untraced")
                else:
                    tracer.request = request
                dt, ok = self.call_main(list(inv.argv) + self.thread_args(setting) + ["--out", str(outdir)])
                wall += dt
                exit_ok[setting, inv.label] = ok
        finally:
            if tracer is not None:
                self.record(f"restoring the traced originals (round {round_index})",
                            [f"{name} not restored" for name in tracer.restore()])
        return wall, exit_ok

    def traced_round(self, round_index: int) -> dict:
        invocations = self.workload.invocations(round_index)
        wall, traced, tracers, exit_ok = {}, {}, {}, {}
        for setting in self.settings(round_index):
            passes = (False, True) if round_index % 2 == 0 else (True, False)
            for with_trace in passes:
                tracer = spans.Tracer() if with_trace else None
                dt, ok = self.inprocess_pass(round_index, setting, invocations, tracer)
                if with_trace:
                    traced[setting], tracers[setting] = dt, tracer
                    exit_ok.update(ok)
                else:
                    wall[setting] = dt
                    self.record(f"untraced pass --threads {setting} (round {round_index})",
                                [] if all(ok.values()) else ["non-zero exit or exception"])
        self.check_round(round_index, invocations, exit_ok)
        self.last_tracers = tracers
        metrics = self.layer_metrics(invocations, tracers)
        return {"metrics": metrics, "traced_s": traced[1], "untraced_s": wall[1]}

    def layer_metrics(self, invocations, tracers) -> dict:
        s1 = spans.Summary(tracers[1].spans)
        sn = spans.Summary(tracers[DEFAULT].spans)
        kept = [r for name, r in tracers[1].results if name == "montecarlo.simulate_records"]
        reps_expected = sum(getattr(self.workload, "replications", 0)
                            for inv in invocations if inv.label == "simulate")
        stream = "streams.replicate_stream"
        for setting, summary in ((1, s1), (DEFAULT, sn)):
            # montecarlo imports replicate_stream by name: a tracer that
            # patched only the streams module would count nothing here
            calls = summary.calls[stream]
            self.record(f"{stream} intercept --threads {setting}",
                        [] if calls == reps_expected else [f"{calls} calls for {reps_expected} replicates"])

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        m = {}
        lines = sum(inv.input_lines for inv in invocations)
        cli_self = s1.layer_self_s("cli")
        m["cli.self_s"] = cli_self
        m["cli.input_lines"] = lines
        m["cli.ns_per_input_line"] = ratio(cli_self, lines, 1e9)

        m[stream + ".calls"] = s1.calls[stream]
        m[stream + ".us_per_call"] = ratio(s1.incl_ns[stream], s1.calls[stream], 1e-3)

        if len(kept) > 1:
            raise ValueError("one simulate call per traced pass expected")
        work = draws_counters(kept[0]) if kept else dict.fromkeys(WORK_KEYS, 0)
        reps, obs = work["replications"], work["obs_total"]
        take = "montecarlo.ThetaStream.take"
        m[take + ".calls"] = s1.calls[take]
        m[take + ".self_s"] = s1.self_ns[take] / 1e9
        m[take + ".ns_per_obs"] = ratio(s1.self_ns[take], s1.units[take])
        m["montecarlo.blocks_per_rep"] = ratio(s1.calls[take], reps)

        sim = "montecarlo.simulate_records"
        m[sim + ".self_s"] = s1.self_ns[sim] / 1e9
        m[sim + ".us_per_rep"] = ratio(s1.self_ns[sim], reps, 1e-3)
        m[sim + ".ns_per_obs"] = ratio(s1.self_ns[sim], obs)
        m[sim + ".thread_eff"] = ratio(s1.incl_ns[sim], sn.incl_ns[sim] * self.threads)
        for key in ("obs_total", "obs_p50", "obs_p99", "obs_max", "top1pct_obs_share", "truncated"):
            m["montecarlo." + key] = work[key]
        m["trunc_frac"] = ratio(work["truncated"], reps)

        m["montecarlo.bias_risk_table.self_s"] = s1.self_ns["montecarlo.bias_risk_table"] / 1e9
        m["estimators.self_s"] = s1.layer_self_s("estimators")
        m["estimators.calls"] = s1.layer_calls("estimators")
        m["records.canonical_records.self_s"] = s1.self_ns["records.canonical_records"] / 1e9
        m["records.self_s"] = s1.layer_self_s("records")
        m["records.ns_per_obs"] = ratio(s1.layer_self_s("records"), s1.units["records.extract_records"], 1e9)
        m["families.self_s"] = s1.layer_self_s("families")

        cv = "stationarity.critical_values"
        m[cv + ".self_s"] = s1.self_ns[cv] / 1e9
        m[cv + ".draws"] = s1.units[cv]
        m[cv + ".ns_per_draw"] = ratio(s1.self_ns[cv], s1.units[cv])
        m[cv + ".thread_eff"] = ratio(s1.incl_ns[cv], sn.incl_ns[cv] * self.threads)
        return m

    def per_layer(self) -> dict:
        self.setup_time()  # fails early when the checkout cannot import recsel
        sys.path.insert(0, str(self.src))
        import recsel.cli  # noqa: F401  (imported before any timing)

        if self.src.resolve() not in Path(recsel.cli.__file__).resolve().parents:
            raise SetupFailed(f"recsel imported from {recsel.cli.__file__}, not {self.src}")
        metrics = self.import_ms()
        per_round = self.rounds(self.traced_round)
        for key in per_round[0]["metrics"]:
            # median_low: a value one round measured, so counts stay whole
            metrics[key] = statistics.median_low(r["metrics"][key] for r in per_round)
        # the fastest pass of each kind is the one least disturbed by load
        traced = min(r["traced_s"] for r in per_round)
        untraced = min(r["untraced_s"] for r in per_round)
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_frac"] = (traced - untraced) / untraced
        out = self.root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        for setting, tracer in self.last_tracers.items():
            tracer.write(out / f"spans-{self.workload.name}-t{setting}.tsv")
        return metrics


def top_import_us(importtime_log: str, package: str) -> int:
    """Summed cumulative microseconds of the imports of `package` and its
    submodules that no other such import contains.  The log lists children
    before their parent, one indentation step deeper; an import done through
    a lazy module `__getattr__` may have no line of its own, so the package
    line alone is not enough."""
    entries = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def ours(name):
        return name == package or name.startswith(package + ".")

    total = 0
    open_parents: list[tuple[int, str]] = []  # (depth, name), walking the log backwards
    for depth, name, cumulative in reversed(entries):
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        if ours(name) and not any(ours(n) for _, n in open_parents):
            total += cumulative
        open_parents.append((depth, name))
    return total


def differing_files(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return [f"output files differ between thread settings: {names_a} vs {names_b}"]
    return [f"{name} differs between thread settings" for name in names_a
            if (a / name).read_bytes() != (b / name).read_bytes()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bench = Bench(root, args.workload, args.seconds)
    try:
        bench.preflight()
        print(json.dumps({"machine": machine_facts()}), flush=True)
        bench.work.mkdir(parents=True, exist_ok=True)
        bench.workload.prepare(root, bench.work, args.seed)
        measured = bench.per_layer() if args.trace else bench.end_to_end()
        check_run = getattr(bench.workload, "check_run", None)
        if check_run is not None:
            bench.record("UMVUE bias pooled over the rounds", check_run())
        if args.trace:
            measured["fail_frac"] = bench.failed / bench.attempted
    except SetupFailed as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()  # only when no other run is using it

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
