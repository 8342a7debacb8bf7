"""Command-line surface: seeded scenario runs with manifest output.

Subcommands::

    nvmag validate       --config FILE              config check only
    nvmag sensitivity    --config FILE [--out DIR]  closed-form limits
    nvmag sweep          --config FILE [--out DIR]  test-field response
    nvmag scaling        --config FILE [--out DIR]  deviation vs averaging time
    nvmag error-scaling  --config FILE [--out DIR]  drive-error response
    nvmag budget         --config FILE [--out DIR]  cumulative noise budgets

Exit codes: 0 success, 1 configuration error (including unknown
arguments), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments, io as _io
from .scenario import ConfigError, RunManifest, Scenario, load_scenario

_COMMANDS = ("validate", "sensitivity", "sweep", "scaling", "error-scaling",
             "budget")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; config/usage problems are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nvmag",
                     description="pulsed NV-ensemble magnetometry simulator")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads over Monte Carlo chunks")
        if name == "sweep":
            p.add_argument("--max-amplitude-T", type=float, default=2e-7)
            p.add_argument("--points", type=int, default=13)
    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.config)
    if args.seed is not None:
        # rebuilt, not assigned, so the override is validated too
        scenario = dataclasses.replace(scenario, master_seed=args.seed)
    return scenario


def _out_dir(args, scenario: Scenario) -> Path:
    out = Path(args.out) if args.out else Path("out") / \
        f"{scenario.name}-{args.command}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_sensitivity(scenario: Scenario, out_dir: Path) -> None:
    inputs = analysis.SensitivityInputs(
        sigma1=scenario.sigma1 or 0.0,
        contrast_amplitude=scenario.response_amplitude or 0.0,
        phase_time=scenario.sequence.phase_time,
        sequence_time=scenario.sequence.sequence_time,
        total_time=scenario.total_time,
        n_centres=scenario.n_centres,
        t2=scenario.decay.t2 if scenario.decay else 2 * scenario.sequence.phase_time,
        decay_exponent=scenario.decay.exponent if scenario.decay else 1.0,
        gamma_e=scenario.hamiltonian.gamma_e,
    )
    b_qpn = analysis.projection_limit_eq2(inputs)
    coeff = analysis.projection_limit_simplified(
        1.0, 1.0, 1.0, gamma_e=inputs.gamma_e)
    t_opt = analysis.optimal_phase_time(inputs.t2, inputs.decay_exponent)
    print(f"projection limit B_QPN = {b_qpn:.6g} T/sqrt(Hz) "
          f"({b_qpn * 1e15:.2f} fT/sqrt(Hz)) for N = {inputs.n_centres:.3g}, "
          f"phase time {inputs.phase_time * 1e6:.3g} us")
    print(f"optimal-time coefficient sqrt(2e)/gamma = {coeff:.6g} T*sqrt(s)")
    print(f"optimal phase time = {t_opt:.6g} s")
    header = ["b_qpn_T_per_sqrtHz", "simplified_coefficient", "optimal_phase_time_s"]
    cols = [np.array([b_qpn]), np.array([coeff]), np.array([t_opt])]
    b_eq1 = None
    if scenario.sigma1 and scenario.response_amplitude:
        b_eq1 = analysis.sensitivity_eq1(inputs)
        print(f"pulsed-detection resolution B_min = {b_eq1:.6g} T "
              f"after {inputs.total_time:.3g} s")
        header.append("b_min_T")
        cols.append(np.array([b_eq1]))
    manifest = RunManifest.start(scenario)
    path = _io.write_table(out_dir / "sensitivity.csv", header, cols)
    manifest.add_output(path)
    manifest.finish(out_dir)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        scenario = _load(args)
        if args.command == "validate":
            print(f"scenario '{scenario.name}' is valid "
                  f"(seed {scenario.master_seed}, "
                  f"{scenario.n_sequences} sequences, "
                  f"schemes {''.join(scenario.schemes)})")
            return 0
        out_dir = _out_dir(args, scenario)
        if args.command == "sensitivity":
            _run_sensitivity(scenario, out_dir)
        elif args.command == "sweep":
            amplitudes = np.linspace(0.0, args.max_amplitude_T, args.points)
            result = experiments.run_ac_sweep(scenario, amplitudes,
                                              out_dir=out_dir,
                                              threads=args.threads)
            for scheme, amp in result.response_amplitude.items():
                print(f"scheme {scheme}: response amplitude {amp:.6g}")
        elif args.command == "scaling":
            result = experiments.run_scaling_experiment(scenario,
                                                        out_dir=out_dir,
                                                        threads=args.threads)
            for scheme, sc in result.schemes.items():
                print(f"scheme {scheme}: {sc.series.values.size} values, "
                      f"sigma1 = {sc.series.values.std(ddof=1):.6g}")
        elif args.command == "error-scaling":
            experiments.run_error_scaling(scenario, out_dir=out_dir)
        elif args.command == "budget":
            result = experiments.run_noise_budget(scenario, out_dir=out_dir)
            for scheme, s1 in sorted(result.sigma1.items()):
                print(f"scheme {scheme}: shot-only sigma1 = {s1:.6g}")
        print(f"outputs written to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
