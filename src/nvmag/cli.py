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
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments, sequences
from .scenario import (ConfigError, Scenario, load_scenario, utc_now,
                       write_run)

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


def _sweep_amplitudes(args, scenario: Scenario) -> np.ndarray:
    """The sweep grid; two points at least, so the fit is determined, up
    to a finite positive amplitude whose echo phase is finite."""
    top = args.max_amplitude_T
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    phase = sequences.analytic_echo_phase(top, scenario.sequence.phase_time,
                                          scenario.hamiltonian.gamma_e)
    if not (top > 0.0 and math.isfinite(phase)):
        raise ConfigError("--max-amplitude-T must be positive and give a "
                          "finite echo phase")
    return np.linspace(0.0, top, args.points)


def _out_dir(args, scenario: Scenario) -> Path:
    out = Path(args.out) if args.out else Path("out") / \
        f"{scenario.name}-{args.command}"
    try:  # a file, or a path through one, cannot be the directory
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out}: {exc.strerror}") from exc
    return out


def _run_sensitivity(scenario: Scenario, out_dir: Path) -> None:
    started = utc_now()
    seq, decay = scenario.sequence, scenario.decay
    gamma_e = scenario.hamiltonian.gamma_e
    evaluations = scenario.total_time / seq.sequence_time
    b_qpn = analysis.projection_limit_eq2(
        scenario.n_centres, evaluations, seq.phase_time,
        decay.envelope(seq.phase_time), gamma_e)
    coeff = analysis.projection_limit_simplified(1.0, 1.0, 1.0, gamma_e)
    t_opt = analysis.optimal_phase_time(decay.t2, decay.exponent)
    print(f"projection limit B_QPN = {b_qpn:.6g} T/sqrt(Hz) "
          f"({b_qpn * 1e15:.2f} fT/sqrt(Hz)) for N = {scenario.n_centres:.3g}, "
          f"phase time {seq.phase_time * 1e6:.3g} us")
    print(f"optimal-time coefficient sqrt(2e)/gamma = {coeff:.6g} T*sqrt(s)")
    print(f"optimal phase time = {t_opt:.6g} s")
    _, eta = experiments.shot_noise_limit(scenario)
    for scheme, value in eta.items():
        print(f"scheme {scheme}: shot-noise-limited sensitivity eta = "
              f"{value:.6g} T/sqrt(Hz)")
    header = ["b_qpn_T_per_sqrtHz", "simplified_coefficient",
              "optimal_phase_time_s"] + [f"eta_{s}_T_per_sqrtHz" for s in eta]
    cols = [np.array([v]) for v in [b_qpn, coeff, t_opt, *eta.values()]]
    write_run(scenario, out_dir, started, {"sensitivity.csv": (header, cols)})


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
        if args.command == "sweep":
            amplitudes = _sweep_amplitudes(args, scenario)
        out_dir = _out_dir(args, scenario)
        if args.command == "sensitivity":
            _run_sensitivity(scenario, out_dir)
        elif args.command == "sweep":
            result = experiments.run_ac_sweep(scenario, amplitudes,
                                              out_dir=out_dir)
            for scheme, amp in result.response_amplitude.items():
                print(f"scheme {scheme}: response amplitude {amp:.6g}")
        elif args.command == "scaling":
            result = experiments.run_scaling_experiment(scenario,
                                                        out_dir=out_dir)
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
