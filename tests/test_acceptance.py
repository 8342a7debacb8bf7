"""End-to-end acceptance checks.

Each test exercises one headline requirement at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from nvmag import analysis, experiments, filters, io as _io, readout
from nvmag import sequences as sq
from nvmag.cli import main as cli_main
from nvmag.scenario import CHUNK_SIZE, load_scenario, scenario_from_mapping
from conftest import SCENARIO_FILE
from reference_analysis import fit_log_slope
from reference_filters import filter_transmission_numeric, window_for_signal
from reference_spin import locked_field, simulate_full

GAMMA_E = 28.7e9
SRC = Path(__file__).resolve().parent.parent / "src"
GAMMA_RAD = 2 * np.pi * GAMMA_E


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})",
          flush=True)
    assert passed, f"{name}: {detail}"


def test_01_projection_limit_subcommand(tmp_path, capsys):
    t0 = time.time()
    code = cli_main(["sensitivity", "--config", str(SCENARIO_FILE),
                     "--out", str(tmp_path)])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if "projection limit" in l][0]
    value = float(line.split("=")[1].split()[0])
    ok = code == 0 and elapsed < 1.0 and abs(value - 6e-15) / 6e-15 < 0.10
    with capsys.disabled():
        report("01 projection limit", ok,
               f"B_QPN = {value * 1e15:.2f} fT/sqrt(Hz), exit {code}, "
               f"{elapsed * 1e3:.0f} ms")


def test_02_simplified_coefficient(capsys):
    t0 = time.time()
    coeff = analysis.projection_limit_simplified(1.0, 1.0, 1.0,
                                                 gamma_e=GAMMA_E)
    elapsed = time.time() - t0
    ok = abs(coeff - 1.3e-11) / 1.3e-11 < 0.01 and elapsed < 1.0
    with capsys.disabled():
        report("02 simplified coefficient", ok,
               f"sqrt(2e)/gamma = {coeff:.4e}, target 1.3e-11 within 1%")


def test_03_optimal_phase_time(capsys):
    t2 = 2e-3
    got = analysis.optimal_phase_time(t2, 1.0)
    exact = got == t2 / 2
    lo, hi = t2 * 1e-3, t2 * 1e2
    for _ in range(4):
        grid = np.linspace(lo, hi, 10_000)
        objective = np.exp(grid / t2) / np.sqrt(grid)
        k = int(np.argmin(objective))
        lo, hi = grid[max(k - 2, 0)], grid[min(k + 2, grid.size - 1)]
    oracle = grid[k]
    ok = exact and abs(got - oracle) / oracle < 1e-6
    with capsys.disabled():
        report("03 optimal phase time", ok,
               f"T* = {got:.6e} s (exact t2/2: {exact}, "
               f"grid oracle {oracle:.6e})")


def test_04_filter_closed_form(capsys):
    t_l, d_t, t_seq = 100e-6, 10e-6, 160e-6
    omega = 2 * np.pi * np.logspace(0, 6, 1000)
    margins = {}
    for scheme in "ABCD":
        num = filter_transmission_numeric(
            window_for_signal(scheme, t_l, d_t, t_seq), omega)
        ana = filters.filter_transmission(scheme, omega, t_l, d_t, t_seq)
        allowance = np.maximum(1e-9 * ana, 1e-15 * ana.max())
        margins[scheme] = np.max(np.abs(num - ana) / allowance)
    agree = all(m <= 1.0 for m in margins.values())
    # zero-frequency limits: X_A keeps the window area exactly, every
    # referenced or paired filter vanishes exactly, and X_B rolls off
    # linearly towards it
    dc = {s: filters.filter_transmission(s, 0.0, t_l, d_t, t_seq)
          for s in "ABCD"}
    exact_dc = dc["A"] == d_t and dc["B"] == dc["C"] == dc["D"] == 0.0
    lows = 2 * np.pi * np.array([1e-4, 1e-5, 1e-6])
    x_low = filters.filter_transmission("B", lows, t_l, d_t, t_seq)
    peak_b = filters.filter_transmission("B", omega, t_l, d_t, t_seq).max()
    b_dc = x_low[-1] < 1e-9 * peak_b and np.all(
        np.abs(x_low[1:] / x_low[:-1] - 0.1) < 1e-3)
    ok = bool(agree and exact_dc and b_dc)
    with capsys.disabled():
        report("04 filter closed form", ok,
               "1000 log-spaced freqs, worst dev of A/B/C/D at "
               + "/".join(f"{margins[s]:.1e}" for s in "ABCD")
               + f" of the 1e-9 relative allowance, DC limits "
               f"ok={bool(exact_dc and b_dc)}")


def test_05_pulse_error_linearity(full_params, capsys):
    # the two-level parameters of the reference model at the 4.6 mT bias
    params = full_params.two_level()
    t0 = time.time()
    dg = np.logspace(-4, -3, 10)
    df = np.logspace(1, 2, 10)
    dz_g = sq.pulse_error_response(dg, 0.0, phase_time=50e-6, rabi=5e6,
                                   params=params)
    dz_f = sq.pulse_error_response(0.0, df, phase_time=50e-6, rabi=5e6,
                                   params=params)
    dz_00 = sq.pulse_error_response(0.0, 0.0, phase_time=50e-6, rabi=5e6,
                                    params=params)[0]
    slope_g = np.polyfit(np.log10(dg), np.log10(dz_g), 1)[0]
    slope_f = np.polyfit(np.log10(df), np.log10(dz_f), 1)[0]
    elapsed = time.time() - t0
    ok = (abs(slope_g - 1.0) < 0.05 and abs(slope_f - 1.0) < 0.05
          and dz_00 <= 1e-12 and elapsed < 60.0)
    with capsys.disabled():
        report("05 pulse error linearity", ok,
               f"amplitude slope {slope_g:.3f}, frequency slope {slope_f:.3f}, "
               f"zero-error dev {dz_00:.1e}, {elapsed:.1f} s")


def test_06_echo_phase_oracle(full_params, capsys):
    # the full 9-dimensional reference (zero-field splitting, nuclear
    # Zeeman term, 4.6 mT bias) against the two-level production path,
    # which knows only gamma_e and the hyperfine coupling
    phase_time, rabi = 50e-6, 5e6
    b_max = 0.3 / (4 * GAMMA_E * phase_time)
    amplitudes = np.linspace(b_max / 10, b_max, 10)
    params = full_params.two_level()
    worst, worst_full = 0.0, 0.0
    for b in amplitudes:
        # the m_I = 0 block alone, then the hyperfine average
        p, p_avg = (float(sq.echo_populations(
            phase_time, rabi, params, field_amplitude=b, final_phase=0.0,
            m_i_values=m_i)[0]) for m_i in ((0,), (-1, 0, 1)))
        full, full_avg = (simulate_full(
            phase_time, rabi, full_params,
            field=locked_field(b, phase_time), final_phase=0.0,
            m_i_values=m_i) for m_i in ((0,), (-1, 0, 1)))
        worst_full = max(worst_full, abs(p - full), abs(p_avg - full_avg))
        phi_sim = np.arccos(2 * p - 1)
        phi_ref = sq.analytic_echo_phase(b, phase_time, full_params.gamma_e)
        worst = max(worst, abs(phi_sim - phi_ref) / phi_ref)
    ok = worst < 1e-9 and worst_full < 1e-9
    with capsys.disabled():
        report("06 echo phase oracle", ok,
               f"10 amplitudes up to phase 0.3 rad, worst rel dev "
               f"{worst:.2e}, worst full-model population dev "
               f"{worst_full:.2e}")


def test_07_allan_estimator(capsys):
    samples = np.where(np.arange(10_000) % 2 == 0, 1.0, -1.0)
    exact = analysis.allan_deviation(samples, 1.0, [1.0]).values[0] == np.sqrt(2.0)

    rng = np.random.default_rng(123)
    white = rng.standard_normal(1_000_000)
    taus = np.unique(np.round(np.logspace(0, 3, 24)))
    curve = analysis.allan_deviation(white, 1.0, taus)
    slope, _ = fit_log_slope(curve, 1.0, 1e3)

    short = rng.standard_normal(10_000)
    check_taus = [1.0, 2.0, 4.0, 10.0, 31.0, 100.0, 313.0, 1000.0]
    got = analysis.allan_deviation(short, 1.0, check_taus).values
    oracle = []
    for tau in check_taus:
        m = int(tau)
        blocks = short.size // m
        means = [np.mean(short[i * m:(i + 1) * m]) for i in range(blocks)]
        diffs = np.array([means[i + 1] - means[i] for i in range(blocks - 1)])
        oracle.append(np.sqrt(0.5 * np.mean(diffs * diffs)))
    bitwise = np.array_equal(got, np.asarray(oracle))

    ok = bool(exact and abs(slope + 0.5) < 0.05 and bitwise)
    with capsys.disabled():
        report("07 Allan estimator", ok,
               f"alternating exact={exact}, white slope {slope:.3f}, "
               f"oracle bit-for-bit={bitwise}")


def test_08_referencing_penalty(capsys):
    t0 = time.time()
    n = 100_000
    cfg_on = readout.ReadoutConfig(photon_rate=9.277e18)
    cfg_off = readout.ReadoutConfig(photon_rate=9.277e18,
                                    reference_enabled=False)
    p = np.full(n, 0.5)
    s_a_off, s_b_off = readout.sequence_signals(
        p, cfg_off, np.random.default_rng(101))
    s_a_on, s_b_on = readout.sequence_signals(
        p, cfg_on, np.random.default_rng(101))
    s_d_on = readout.pair_difference(s_b_on)

    # per-unit-time comparison: scheme D consumes two sequences per value
    ratio = (s_d_on.std() * np.sqrt(2.0)) / s_a_off.std()
    root2 = np.sqrt(2.0)
    steps = (s_a_on.std() / s_a_off.std(),      # laser referencing
             s_b_on.std() / s_a_on.std(),       # window referencing
             s_d_on.std() / s_b_on.std())       # sequence referencing
    elapsed = time.time() - t0
    ok = (abs(ratio - 4.0) / 4.0 < 0.10
          and all(abs(s - root2) / root2 < 0.05 for s in steps)
          and elapsed < 300.0)
    with capsys.disabled():
        report("08 referencing penalty", ok,
               f"per-unit-time ratio {ratio:.3f} (target 4), steps "
               + "/".join(f"{s:.3f}" for s in steps)
               + f" (target {root2:.3f}), {elapsed:.1f} s")


def test_09_scaling_recovery(capsys):
    t0 = time.time()
    scenario = scenario_from_mapping({
        "name": "recovery",
        "master_seed": 424242,
        "n_sequences": 1_000_000,
        "schemes": ["B", "D"],
        "sequence": {"phase_time_s": 50e-6, "sequence_time_s": 160e-6,
                     "rabi_Hz": 5e6},
        "decay": {"t2_s": 100e-6},
        "readout": {"photon_rate_cps": 9.277e18},
        "noise": {"mw_amplitude": {"flicker": [[6.8e-9, 1.0]],
                                   "f_min_Hz": 1e-3, "f_max_Hz": 6250.0}},
    })

    # precondition: the converted amplitude-noise budget crosses the
    # shot-only per-evaluation deviation around one second
    budget = experiments.run_noise_budget(scenario)
    sigma1 = budget.sigma1["B"]
    cfg, t_seq = scenario.readout, 160e-6
    freqs = np.logspace(-3, np.log10(1 / t_seq), 800)
    density = scenario.noise["mw_amplitude"].density(freqs)
    converted = budget.slopes["mw_amplitude"] * \
        filters.filtered_cumulative_noise_descending(
            freqs, density, "A", cfg.laser_time, cfg.window_time, t_seq,
            freqs[-1])
    above = converted > sigma1
    crossing = freqs[above][-1] if above.any() else np.nan
    crossing_ok = 0.05 < crossing < 20.0

    result = experiments.run_scaling_experiment(scenario)
    curves = {}
    for scheme in ("B", "D"):
        series = result.schemes[scheme].series
        grid = analysis.default_time_grid(series.values.size, series.spacing,
                                          min_blocks=16)
        std = analysis.std_vs_time(series.values, series.spacing, grid)
        curves[scheme] = (std, std.values / result.schemes[scheme].response_per_tesla)

    std_b, field_b = curves["B"]
    std_d, field_d = curves["D"]
    t_max = std_b.times[-1]
    slope_b, _ = fit_log_slope(std_b, t_max / 10, t_max)
    slope_d, _ = fit_log_slope(std_d, std_d.times[0],
                                        std_d.times[0] * 100)
    plateau = field_b[std_b.times >= t_max / 10].mean()
    floor = field_d[-1]
    elapsed = time.time() - t0
    ok = (crossing_ok and slope_b > -0.2 and abs(slope_d + 0.5) < 0.05
          and plateau >= 5 * floor and elapsed < 900.0)
    with capsys.disabled():
        report("09 scaling recovery", ok,
               f"budget/sigma1 crossing {crossing:.2f} Hz, plateau slope "
               f"{slope_b:.3f}, recovered slope {slope_d:.3f} over 2 decades, "
               f"plateau/floor {plateau / floor:.1f}x, {elapsed:.0f} s")


def test_10_determinism(tmp_path, capsys):
    # three shot-noise chunks per scheme group; two in-process runs and one
    # fresh interpreter through the CLI
    mapping = yaml.safe_load(SCENARIO_FILE.read_text())
    mapping["n_sequences"] = 2 * CHUNK_SIZE + 4096
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(mapping))
    scenario = load_scenario(path)
    digests = []
    for run in ("a", "b"):
        res = experiments.run_scaling_experiment(scenario,
                                                 out_dir=tmp_path / run)
        digests.append({p.name: _io.file_digest(p) for p in res.outputs})
    child = subprocess.run(
        [sys.executable, "-m", "nvmag.cli", "scaling", "--config", str(path),
         "--out", str(tmp_path / "cli")], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text()) \
        if child.returncode == 0 else {"outputs": {}}
    digests.append(manifest["outputs"])
    ok = digests[0] == digests[1] == digests[2] and len(digests[0]) == 6
    with capsys.disabled():
        report("10 determinism", ok,
               f"{len(digests[0])} output files byte-identical across two "
               f"in-process runs and a fresh CLI process, exit "
               f"{child.returncode}")
