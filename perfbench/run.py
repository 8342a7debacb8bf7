"""End-to-end and per-layer benchmark of nvmag.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload sweep-baseline --seed 7140 \\
        --seconds 20 --trace 0

Workloads (each a closed loop: one client, one process, ``threads=1``):

* ``cli-baseline`` -- the six cold commands ``nvmag validate | sensitivity |
  sweep | scaling | error-scaling | budget`` on the baseline scenario, each
  in a fresh interpreter, as a user types them.  Import cost is paid on
  every command, so this is the workload where import time shows, and the
  only one that covers ``filters`` and the budget / error-scaling runners.
* ``scaling-1m`` -- in-process ``run_scaling_experiment`` with outputs on
  the baseline scenario at 2**20 sequences, schemes A-D, laser and
  microwave noise.  Echo propagation, trace synthesis, photon sampling,
  the estimators and table I/O all do real work.
* ``sweep-baseline`` -- in-process ``run_ac_sweep`` on the baseline
  scenario, 13 amplitudes from 0 to 2e-7 T, schemes B and D: many medium
  ``echo_populations`` batches with a non-zero AC field (the field-integral
  path ``scaling-1m`` never takes), dominated by trace synthesis, with two
  tiny tables, so an I/O change predicts no change here.

The seed becomes the generated scenario's ``master_seed``; the program
receives only that scenario file.  A run repeats whole passes of its
workload until ``--seconds`` have elapsed.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` alternates untraced and traced
passes after one warm-up pass and reports the per-layer metrics (see
``layers.py``) and the tracing overhead.  Every pass checks its outputs
against closed forms or reference values.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
the metrics named in ``BENCHMARK.json``; a fuller record (percentiles,
per-command times, output digests, failures, environment) goes to
``perfbench/out/result-*.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
BASELINE = ROOT / "scenarios" / "baseline.yaml"
OUT = HERE / "out"

WORKLOADS = ("cli-baseline", "scaling-1m", "sweep-baseline")
DEFAULT_SEED = 7140
COMMANDS = ("validate", "sensitivity", "sweep", "scaling", "error-scaling",
            "budget")
#: the sweep of ``nvmag sweep``'s defaults, used in-process as well
SWEEP_MAX_T, SWEEP_POINTS = 2e-7, 13
#: ``run_noise_budget``'s default shot-only reference length
BUDGET_REFERENCE = 4096
SCALING_1M = dict(n_sequences=2 ** 20, schemes=["A", "B", "C", "D"])
#: fresh interpreters timed for ``setup_s`` / probed for import times
SETUP_SAMPLES, IMPORT_SAMPLES = 3, 3
CHILD_TIMEOUT_S = 120.0
#: leaf layers must cover this share of a traced in-process pass
MIN_LAYER_COVERAGE = 0.9

# Reference values for the stochastic outputs: mean and standard deviation
# over master seeds 1-200 (the sweep: 1-100; scaling-1m: 1-40) of the code
# this benchmark was written against (numpy 2.4, scipy 1.17).  A value
# passes within REF_SIGMAS standard deviations, so a check follows the
# sampling statistics of the output and not one random stream.  Flicker
# noise gives sigma1 heavy tails: the largest deviation over those seeds
# is 4.0 standard deviations.
REF_SIGMAS = 6.0
REF_SWEEP_RESPONSE = {"B": (1.08407643e-03, 6.03e-08),
                      "D": (2.16254282e-03, 5.67e-08)}
REF_SCALING_SIGMA1 = {"B": (2.46936292e-07, 4.83e-09),
                      "D": (3.05374427e-07, 2.16e-09)}
REF_BUDGET_SIGMA1 = {"B": (2.07460775e-07, 2.27e-09),
                     "D": (2.92872990e-07, 4.50e-09)}
REF_SCALING_1M_SIGMA1 = {"A": (2.15652627e-07, 5.46e-09),
                         "B": (2.60867488e-07, 4.51e-09),
                         "C": (2.24279310e-07, 2.26e-10),
                         "D": (3.05578447e-07, 3.00e-10)}


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(argv, work: Path, tag: str) -> ChildResult:
    """Run a fresh interpreter with the checkout's ``src`` on its path;
    wall time from spawn to reap, peak RSS from its own rusage."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # reaped here, so tell the Popen object it has ended
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss,
                       out_path.read_text(), err_path.read_text())


def table_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def check_manifest(out_dir: Path, digests: dict) -> list[str]:
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return [f"{out_dir.name}: no manifest.json"]
    recorded = json.loads(manifest.read_text()).get("outputs", {})
    if recorded != digests or not digests:
        return [f"{out_dir.name}: manifest digests disagree with the tables"]
    return []


def near(label, value, ref) -> list[str]:
    mean, sd = ref
    if not math.isfinite(value) or abs(value - mean) > REF_SIGMAS * sd:
        return [f"{label} = {value:.6g}, reference {mean:.6g} "
                f"+- {REF_SIGMAS:g} x {sd:.3g}"]
    return []


def close(label, value, expected, rel=1e-5) -> list[str]:
    if not math.isfinite(value) or abs(value - expected) > rel * abs(expected):
        return [f"{label} = {value:.6g}, closed form {expected:.6g}"]
    return []


def parse_number(text: str, prefix: str, after: str) -> float:
    """The number following ``after`` on the first line starting with
    ``prefix``; NaN when there is no such line."""
    for line in text.splitlines():
        if line.startswith(prefix) and after in line:
            return float(line.split(after, 1)[1].split()[0])
    return math.nan


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def closed_form_sensitivity(mapping: dict):
    """Projection limit, optimal-time coefficient and optimal phase time."""
    gamma_rad = 2 * math.pi * mapping["hamiltonian"]["gamma_e_Hz_per_T"]
    seq, decay = mapping["sequence"], mapping["decay"]
    t_phi, t2, k = seq["phase_time_s"], decay["t2_s"], decay["exponent"]
    evaluations = mapping["analysis"]["total_time_s"] / seq["sequence_time_s"]
    b_qpn = 1.0 / (gamma_rad * math.sqrt(mapping["ensemble"]["n_centres"])
                   * math.sqrt(evaluations) * t_phi
                   * math.exp(-(t_phi / t2) ** k))
    coefficient = math.sqrt(2 * math.e) / gamma_rad
    t_opt = t2 * (2 * k) ** (-1.0 / k)
    return b_qpn, coefficient, t_opt


def check_command(command, child, out_dir: Path, mapping) -> list[str]:
    if child.code != 0:
        return [f"{command}: exit {child.code}: {child.stderr.strip()[-300:]}"]
    text = child.stdout
    if command == "validate":
        return [] if "is valid" in text else ["validate: no 'is valid' line"]
    problems = check_manifest(out_dir, table_digests(out_dir))
    if command == "sensitivity":
        b_qpn, coefficient, t_opt = closed_form_sensitivity(mapping)
        problems += close("B_QPN", parse_number(
            text, "projection limit", "B_QPN ="), b_qpn)
        problems += close("sqrt(2e)/gamma", parse_number(
            text, "optimal-time", "gamma ="), coefficient)
        problems += close("optimal phase time", parse_number(
            text, "optimal phase time", "="), t_opt)
    elif command == "sweep":
        for scheme, ref in REF_SWEEP_RESPONSE.items():
            problems += near(f"sweep response {scheme}", parse_number(
                text, f"scheme {scheme}:", "response amplitude"), ref)
    elif command == "scaling":
        for scheme, ref in REF_SCALING_SIGMA1.items():
            problems += near(f"scaling sigma1 {scheme}", parse_number(
                text, f"scheme {scheme}:", "sigma1 ="), ref)
    elif command == "budget":
        for scheme, ref in REF_BUDGET_SIGMA1.items():
            problems += near(f"budget sigma1 {scheme}", parse_number(
                text, f"scheme {scheme}:", "sigma1 ="), ref)
    elif command == "error-scaling":
        problems += check_error_scaling(out_dir)
    return problems


def check_error_scaling(out_dir: Path) -> list[str]:
    """Linear response: over the first decade of each scan the population
    error has log-log slope 1."""
    problems = []
    for name in ("error_scaling_amplitude.csv", "error_scaling_frequency.csv"):
        data = np.loadtxt(out_dir / name, delimiter=",", skiprows=1, ndmin=2)
        x, y = data[:, 0], np.abs(data[:, 1])
        first = x <= 10.0001 * x[0]
        slope = np.polyfit(np.log10(x[first]), np.log10(y[first]), 1)[0]
        if not abs(slope - 1.0) < 0.05:
            problems.append(f"{name}: small-error slope {slope:.4f}, not 1")
    return problems


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Run:
    """Everything one benchmark process measured."""

    def __init__(self, workload: str, work: Path):
        self.workload, self.work = workload, work
        self.attempted = 0
        self.failures: list[str] = []
        self.walls = {False: [], True: []}       # traced? -> pass wall times
        self.command_walls: dict[str, list] = {}  # cli command -> wall times
        self.layers: list[dict] = []             # per traced pass
        self.coverage: list[float] = []
        self.digests: dict = {}
        self.clipped_warnings = 0
        self.peak_rss_kb = 0

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def record_digests(self, group: str, digests: dict) -> list[str]:
        """Outputs of one (scenario, seed) must match across passes."""
        first = self.digests.setdefault(group, digests)
        return [] if first == digests else [f"{group}: output digests "
                                            "differ between passes"]


def cli_pass(run: Run, scenario_path: Path, mapping, traced: bool) -> float:
    wall = 0.0
    spans, counters = [], {}
    for command in COMMANDS:
        out_dir = run.work / f"cli-{command}"
        shutil.rmtree(out_dir, ignore_errors=True)
        args = [command, "--config", str(scenario_path), "--out", str(out_dir)]
        if traced:
            spans_path = run.work / f"spans-{command}.json"
            spans_path.unlink(missing_ok=True)
            child = run_child([str(HERE / "traced_cli.py"), str(spans_path),
                               *args], run.work, command)
        else:
            child = run_child(["-m", "nvmag.cli", *args], run.work, command)
        wall += child.wall_s
        run.command_walls.setdefault(command, []).append(child.wall_s)
        run.peak_rss_kb = max(run.peak_rss_kb, child.maxrss_kb)
        # printed once per warning location, so a lower bound when untraced
        run.clipped_warnings += child.stderr.count("photon rate negative")
        try:
            problems = check_command(command, child, out_dir, mapping)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"{command}: output check failed: {exc!r}"]
        if command != "validate" and child.code == 0:
            problems += run.record_digests(command, table_digests(out_dir))
        if traced and spans_path.is_file():
            trace = json.loads(spans_path.read_text())
            offset = len(spans)
            spans += [[n, s, e, p + offset if p >= 0 else -1]
                      for n, s, e, p in trace["spans"]]
            for key, value in trace["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        run.operation(problems)
        shutil.rmtree(out_dir, ignore_errors=True)
    if traced:
        run.layers.append(layers.summarize(spans, counters))
    return wall


def in_process_pass(run: Run, scenario_path: Path, traced: bool) -> float:
    from nvmag import experiments, scenario as sc

    out_dir = run.work / "outputs"
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = layers.Tracer() if traced else None
    restore = layers.install(tracer) if traced else None
    problems, result = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        start = time.perf_counter()
        index = tracer.begin(layers.PASS_SPAN) if traced else None
        try:
            scen = sc.load_scenario(scenario_path)
            if run.workload == "scaling-1m":
                result = experiments.run_scaling_experiment(
                    scen, out_dir=out_dir)
            else:
                result = experiments.run_ac_sweep(
                    scen, np.linspace(0.0, SWEEP_MAX_T, SWEEP_POINTS),
                    out_dir=out_dir)
        except Exception:  # a failing pass is counted, the run goes on
            problems.append(traceback.format_exc(limit=3).strip())
        finally:
            if traced:
                tracer.end(index)
        wall = time.perf_counter() - start
    if restore is not None:
        restore()
    clipped = layers.clipped_rate_warnings(caught)
    run.clipped_warnings += clipped
    if traced:
        tracer.count("readout.clipped_rate_warnings", clipped)
        run.layers.append(layers.summarize(tracer.spans, tracer.counters))
        run.coverage.append(layers.layer_coverage(tracer.spans))

    if result is not None:
        try:
            problems += check_in_process(run, result, out_dir, scen)
        except (OSError, ValueError, KeyError, AttributeError) as exc:
            problems.append(f"output check failed: {exc!r}")
    del result
    run.operation(problems)
    run.peak_rss_kb = max(run.peak_rss_kb, resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss)
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall


def check_in_process(run: Run, result, out_dir: Path, scen) -> list[str]:
    from nvmag import readout

    digests = table_digests(out_dir)
    problems = check_manifest(out_dir, digests)
    problems += run.record_digests(run.workload, digests)
    if run.workload == "sweep-baseline":
        for scheme, ref in REF_SWEEP_RESPONSE.items():
            problems += near(f"response {scheme}",
                             result.response_amplitude[scheme], ref)
        return problems
    for scheme, ref in REF_SCALING_1M_SIGMA1.items():
        values = result.schemes[scheme].series.values
        expected = scen.n_sequences // readout.SCHEME_SEQUENCES[scheme]
        if values.size != expected:
            problems.append(f"scheme {scheme}: {values.size} values, "
                            f"expected {expected}")
        problems += near(f"sigma1 {scheme}", float(values.std(ddof=1)), ref)
    return problems


def evals_per_pass(workload: str, mapping) -> int:
    """Field evaluations (sequences x schemes [x amplitudes]) per pass."""
    n, schemes = mapping["n_sequences"], len(mapping["schemes"])
    if workload == "scaling-1m":
        return n * schemes
    if workload == "sweep-baseline":
        return n * schemes * SWEEP_POINTS
    # cli-baseline: sweep, scaling and the budget's shot-only reference
    return n * schemes * SWEEP_POINTS + n * schemes + BUDGET_REFERENCE * schemes


def setup_times(run: Run, scenario_path: Path) -> list[float]:
    """Fresh interpreter to ``import nvmag`` plus ``load_scenario`` done."""
    code = "import sys, nvmag; nvmag.load_scenario(sys.argv[1])"
    walls = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(["-c", code, str(scenario_path)], run.work, "setup")
        run.operation([] if child.code == 0 else
                      [f"setup: exit {child.code}: {child.stderr[-300:]}"])
        walls.append(child.wall_s)
    return walls


def import_times(run: Run) -> dict:
    """``-X importtime`` cumulative seconds of nvmag and its heavy imports,
    median over fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        child = run_child(["-X", "importtime", "-c", "import nvmag"],
                          run.work, "importtime")
        run.operation([] if child.code == 0 else
                      [f"import: exit {child.code}: {child.stderr[-300:]}"])
        samples.append(parse_importtime(child.stderr))
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds per top-level package, counting each
    package's outermost imports only."""
    totals = dict.fromkeys(("nvmag", "scipy", "numpy", "yaml"), 0.0)
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line.split("|")
        try:
            cumulative = float(fields[1]) * 1e-6
        except ValueError:  # the column header
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0], cumulative))
    # entries are in post-order: a module follows everything it imported;
    # walking backwards, an entry's ancestors are the open entries of
    # smaller depth
    open_roots: list[tuple[int, str]] = []
    for depth, root, cumulative in reversed(entries):
        while open_roots and open_roots[-1][0] >= depth:
            open_roots.pop()
        if root in totals and all(r != root for _, r in open_roots):
            totals[root] += cumulative
        open_roots.append((depth, root))
    return {f"import.{root}.s": value for root, value in totals.items()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def timing(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (nearest rank; none below eleven samples), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "samples": values}
    if n >= 11:
        out["percentile"] = 100.0 * (n - 10) / n
        out["percentile_value"] = ordered[n - 11]
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "1" if name.endswith("ratio") or "coverage" in name else "count"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import yaml
    from nvmag import scenario

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "chunk_size": scenario.CHUNK_SIZE, "threads": 1, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    needed = (SRC / "nvmag" / "__init__.py", BASELINE, spec_path)
    if not all(p.is_file() for p in needed):
        print("run from the root of an nvmag checkout; missing: "
              + ", ".join(str(p) for p in needed if not p.is_file()),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nvmag
    import yaml

    if Path(nvmag.__file__).resolve().parent != (SRC / "nvmag").resolve():
        print(f"nvmag imported from {nvmag.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    mapping = yaml.safe_load(BASELINE.read_text())
    mapping["master_seed"] = args.seed
    if args.workload == "scaling-1m":
        mapping.update(SCALING_1M, name="scaling-1m")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario_path = work / "scenario.yaml"
    scenario_path.write_text(yaml.safe_dump(mapping, sort_keys=False))

    run = Run(args.workload, work)
    traced = bool(args.trace)
    values: dict[str, float] = {}
    extra: dict = {}
    if not traced:
        setup = setup_times(run, scenario_path)
        extra["setup_s"] = timing(setup)
        values["setup_s"] = extra["setup_s"]["median"]
    else:
        values.update(import_times(run))

    def one_pass(traced_pass: bool) -> float:
        if args.workload == "cli-baseline":
            return cli_pass(run, scenario_path, mapping, traced_pass)
        return in_process_pass(run, scenario_path, traced_pass)

    if traced:
        # the first pass in a process runs slower; keep it out of the
        # traced-minus-untraced comparison
        one_pass(False)
    # whole passes until --seconds have elapsed (one of each kind when
    # traced, alternating), so a run holds the same number of passes
    # whether the last one ends early or late
    start = time.perf_counter()
    traced_pass = False
    while True:
        run.walls[traced_pass].append(one_pass(traced_pass))
        if time.perf_counter() - start >= args.seconds \
                and (not traced or run.walls[True]):
            break
        traced_pass = traced and not traced_pass

    problems = list(run.failures)
    extra["wall_s"] = timing(run.walls[False])
    if not traced:
        wall = extra["wall_s"]["median"]
        values["wall_s"] = wall
        values["evals_per_s"] = evals_per_pass(args.workload, mapping) / wall
        values["peak_rss_mb"] = run.peak_rss_kb / 1024.0
        section = spec["end_to_end"]
    else:
        extra["traced_wall_s"] = timing(run.walls[True])
        values["trace.overhead_s"] = (extra["traced_wall_s"]["median"]
                                      - extra["wall_s"]["median"])
        keys = sorted({k for summary in run.layers for k in summary})
        for key in keys:
            values[key] = statistics.median(s.get(key, 0.0)
                                            for s in run.layers)
        if run.coverage:
            values["trace.layer_coverage"] = min(run.coverage)
            if values["trace.layer_coverage"] < MIN_LAYER_COVERAGE:
                problems.append(
                    f"leaf layers cover {values['trace.layer_coverage']:.3f}"
                    f" of a traced pass, below {MIN_LAYER_COVERAGE}")
        section = spec["per_layer"]
    failed = len(run.failures)
    values["fail_ratio"] = failed / run.attempted

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args.seed),
        "attempted": run.attempted, "failed": failed, "problems": problems,
        "clipped_rate_warnings": run.clipped_warnings,
        "timings": extra, "command_wall_s": run.command_walls,
        "metrics": values, "output_digests": run.digests,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{label}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    for name, t in extra.items():
        line = f"{name:<44} median {t['median']:.6g} s"
        if "percentile" in t:
            line += f", p{t['percentile']:.3g} {t['percentile_value']:.6g} s"
        print(f"{line} (n={t['n']})")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(values):
        if name != "fail_ratio":
            print(f"{name:<44} {values[name]:.6g} "
                  f"{units.get(name) or unit_of(name)}")
    print(f"{'fail_ratio':<44} {values['fail_ratio']:.6g} "
          f"({failed} of {run.attempted} operations)")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems, "attempted": run.attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
