import copy
import json

import numpy as np
import numpy.testing as npt
import pytest

from nvmag import analysis, experiments, io as _io, noise, sequences as sq
from nvmag.scenario import scenario_from_mapping


def read_table(path):
    """Header and rows of a table written by ``nvmag.io.write_table``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def make_scenario(**overrides):
    mapping = {
        "name": "exp-unit",
        "master_seed": 99,
        "n_sequences": 4096,
        "schemes": ["B", "D"],
        "sequence": {"phase_time_s": 50e-6, "sequence_time_s": 160e-6,
                     "rabi_Hz": 5e6},
        "decay": {"t2_s": 100e-6},
        "readout": {"photon_rate_cps": 9.277e18},
    }
    mapping.update(copy.deepcopy(overrides))
    return scenario_from_mapping(mapping)


class TestAcSweep:
    def test_noiseless_response_is_sinusoidal(self):
        s = make_scenario(n_sequences=1024, schemes=["B"],
                          sequence={"phase_time_s": 50e-6,
                                    "sequence_time_s": 160e-6,
                                    "rabi_Hz": 5e6,
                                    "hyperfine_average": False})
        phase_time = s.sequence.phase_time
        gamma = s.hamiltonian.gamma_e
        # amplitudes giving echo phases up to 0.3 rad
        amps = np.linspace(0.0, 0.3 / (4 * gamma * phase_time), 7)
        res = experiments.run_ac_sweep(s, amps)
        phi = sq.analytic_echo_phase(amps, phase_time, gamma)
        means = res.means["B"]
        a_fit = res.response_amplitude["B"]
        model = means[0] - a_fit * np.sin(phi)
        resid = np.max(np.abs(means - model))
        assert resid < 0.01 * a_fit
        # analytic response amplitude: contrast * window weight * decay / 2
        env = np.exp(-0.5)
        expected = 0.04 * 0.09999546 * env / 2
        assert a_fit == pytest.approx(expected, rel=0.02)

    def test_zero_amplitude_sits_at_working_point(self):
        s = make_scenario(n_sequences=2048, schemes=["B"])
        res = experiments.run_ac_sweep(s, [0.0])
        sem = 2.1e-7 / np.sqrt(s.n_sequences)
        assert abs(res.means["B"][0]) < 5 * sem

    def test_phase_pi_is_an_extremum(self):
        s = make_scenario(n_sequences=512, schemes=["B"],
                          sequence={"phase_time_s": 50e-6,
                                    "sequence_time_s": 160e-6,
                                    "rabi_Hz": 5e6,
                                    "final_phase_rad": 0.0,
                                    "hyperfine_average": False})
        gamma = s.hamiltonian.gamma_e
        b_pi = np.pi / (4 * gamma * s.sequence.phase_time)
        amps = np.array([0.8, 0.9, 1.0, 1.1, 1.2]) * b_pi
        res = experiments.run_ac_sweep(s, amps)
        means = res.means["B"]
        assert np.argmin(means) == 2  # population minimum at phase pi

    def test_doubled_scheme_response(self):
        s = make_scenario(n_sequences=1024, schemes=["B", "D"])
        amps = np.linspace(0.0, 5e-8, 5)
        res = experiments.run_ac_sweep(s, amps)
        assert res.response_amplitude["D"] == pytest.approx(
            2 * res.response_amplitude["B"], rel=0.02)


class TestScalingExperiment:
    def test_shot_only_scaling_is_white(self):
        s = make_scenario(n_sequences=1 << 15, schemes=["B"])
        res = experiments.run_scaling_experiment(s)
        sc = res.schemes["B"]
        grid = analysis.default_time_grid(sc.series.values.size,
                                          sc.series.spacing, min_blocks=64)
        allan = analysis.allan_deviation(sc.series.values, sc.series.spacing,
                                         grid)
        slope, _ = analysis.fit_log_slope(allan, grid[0], grid[-1])
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_correlated_amplitude_noise_breaks_b_not_d(self):
        s = make_scenario(
            n_sequences=1 << 16,
            noise={"mw_amplitude": {"flicker": [[6.8e-9, 1.0]],
                                    "f_min_Hz": 1e-3, "f_max_Hz": 6250.0}})
        res = experiments.run_scaling_experiment(s)
        t_b = res.schemes["B"].std
        t_d = res.schemes["D"].std
        slope_b, _ = analysis.fit_log_slope(t_b, t_b.times[0],
                                            t_b.times[0] * 100)
        slope_d, _ = analysis.fit_log_slope(t_d, t_d.times[0],
                                            t_d.times[0] * 100)
        assert slope_b > -0.35          # flattened by amplitude wander
        assert slope_d == pytest.approx(-0.5, abs=0.05)

    def test_same_seed_reproduces_outputs(self, tmp_path):
        s = make_scenario(n_sequences=2048)
        a = experiments.run_scaling_experiment(s, out_dir=tmp_path / "a")
        b = experiments.run_scaling_experiment(s, out_dir=tmp_path / "b")
        for pa, pb in zip(a.outputs, b.outputs):
            assert _io.file_digest(pa) == _io.file_digest(pb)

    def test_emitted_tables_have_headers(self, tmp_path):
        s = make_scenario(n_sequences=512, schemes=["B"])
        experiments.run_scaling_experiment(s, out_dir=tmp_path)
        header, data = read_table(tmp_path / "series_B.csv")
        assert header == ["index", "time_s", "value"]
        assert data.shape == (512, 3)
        npt.assert_allclose(np.diff(data[:, 1]), 160e-6, rtol=1e-9)
        header, data = read_table(tmp_path / "allan_B.csv")
        assert header == ["tau_s", "deviation", "deviation_T"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"series_B.csv", "allan_B.csv",
                                            "std_B.csv"}


class TestErrorScaling:
    def test_scans_and_tables(self, tmp_path):
        s = make_scenario(n_sequences=64)
        res = experiments.run_error_scaling(
            s, amplitude_errors=np.logspace(-4, -3, 5),
            frequency_errors=np.logspace(1, 2, 5), out_dir=tmp_path)
        assert res.amplitude_response.shape == (5,)
        assert np.all(res.amplitude_response >= 0)
        header, data = read_table(tmp_path / "error_scaling_amplitude.csv")
        assert header == ["delta_g", "delta_z"]
        slope = np.polyfit(np.log10(data[:, 0]), np.log10(data[:, 1]), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)


class TestNoiseBudget:
    def test_zero_models_give_zero_budgets(self):
        s = make_scenario(
            n_sequences=512,
            noise={"mw_amplitude": {"white": 0.0}})
        res = experiments.run_noise_budget(s, n_reference=256)
        npt.assert_array_equal(res.raw["mw_amplitude"], 0.0)
        npt.assert_array_equal(res.filtered["mw_amplitude"], 0.0)

    def test_white_budget_closed_form(self):
        s0 = 4e-9
        s = make_scenario(
            n_sequences=512,
            noise={"laser_intensity": {"white": s0}})
        res = experiments.run_noise_budget(s, n_reference=256)
        f_top = 1.0 / s.sequence.sequence_time
        expected = res.slopes["laser_intensity"] * np.sqrt(
            s0 * (f_top - res.freqs))
        npt.assert_allclose(res.raw["laser_intensity"], expected,
                            rtol=1e-9, atol=1e-30)

    def test_sigma1_matches_shot_prediction(self):
        s = make_scenario(n_sequences=512)
        res = experiments.run_noise_budget(s, n_reference=4096)
        r0_dt = s.readout.photon_rate * s.readout.window_time
        expected_b = 2.0 / np.sqrt(r0_dt)     # reference subtraction on
        assert res.sigma1["B"] == pytest.approx(expected_b, rel=0.05)
        assert res.sigma1["D"] == pytest.approx(np.sqrt(2) * expected_b,
                                                rel=0.05)

    def test_filtered_amplitude_budget_below_sigma1(self, baseline_scenario):
        res = experiments.run_noise_budget(baseline_scenario, n_reference=2048)
        assert np.all(res.filtered["mw_amplitude"] <= res.sigma1["B"])
        # while the raw budget exceeds it at low frequency
        assert res.raw["mw_amplitude"].max() > res.sigma1["B"]


NOISY = {
    "laser_intensity": {"flicker": [[1e-12, 2.0]], "f_min_Hz": 1e-2,
                        "f_max_Hz": 5e4},
    "mw_amplitude": {"flicker": [[6.8e-9, 1.0]], "f_min_Hz": 1e-3,
                     "f_max_Hz": 6250.0},
}


class TestSchemeGroups:
    """A/B share one window record on B's stream, C/D one on D's."""

    @pytest.mark.parametrize("alone, grouped", [(["B"], ["A", "B"]),
                                                (["D"], ["C", "D"])])
    def test_referenced_scheme_ignores_its_partner(self, alone, grouped):
        scheme = alone[0]
        runs = [make_scenario(n_sequences=2048, schemes=schemes, noise=NOISY)
                for schemes in (alone, grouped)]
        scaling = [experiments.run_scaling_experiment(s) for s in runs]
        npt.assert_array_equal(scaling[0].schemes[scheme].series.values,
                               scaling[1].schemes[scheme].series.values)
        sweeps = [experiments.run_ac_sweep(s, [0.0, 5e-8]) for s in runs]
        npt.assert_array_equal(sweeps[0].means[scheme],
                               sweeps[1].means[scheme])
        budgets = [experiments.run_noise_budget(s, n_reference=512)
                   for s in runs]
        assert budgets[0].sigma1[scheme] == budgets[1].sigma1[scheme]

    def test_one_draw_per_group_feeds_both_schemes(self, monkeypatch):
        from nvmag import readout
        draws = []
        original = readout.sequence_signals

        def recording(*args, **kwargs):
            draws.append(original(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(readout, "sequence_signals", recording)
        s = make_scenario(n_sequences=2048, schemes=["A", "B", "C", "D"],
                          noise=NOISY)
        res = experiments.run_scaling_experiment(s).schemes
        assert len(draws) == 2       # one chunk per group
        (a_single, b_single), (a_paired, b_paired) = draws
        npt.assert_array_equal(res["A"].series.values, a_single)
        npt.assert_array_equal(res["B"].series.values, b_single)
        npt.assert_array_equal(res["C"].series.values,
                               a_paired[0::2] - a_paired[1::2])
        npt.assert_array_equal(res["D"].series.values,
                               b_paired[0::2] - b_paired[1::2])
        assert list(res) == ["A", "B", "C", "D"]
