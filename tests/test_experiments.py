import copy
import json
from datetime import datetime, timezone

import numpy as np
import numpy.testing as npt
import pytest

from nvmag import (analysis, experiments, io as _io, noise, readout,
                   sequences as sq)
from nvmag.scenario import CHUNK_SIZE, scenario_from_mapping


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

    def test_referenced_response_follows_window_difference(self):
        # at a 30 us repolarization the end window still carries 5% of the
        # first window's spin dip, which B and D subtract; the analytic
        # field response must follow.  Each pair shares one record, so
        # shot noise moves the fitted ratios by about 1e-6.
        s = make_scenario(n_sequences=4000, schemes=["A", "B", "C", "D"],
                          readout={"photon_rate_cps": 9.277e18,
                                   "repolarization_time_s": 30e-6})
        res = experiments.run_ac_sweep(s, np.linspace(0.0, 5e-8, 5))
        fit = res.response_amplitude
        for unreferenced, referenced in (("A", "B"), ("C", "D")):
            assert fit[referenced] / fit[unreferenced] == pytest.approx(
                s.field_response(referenced) / s.field_response(unreferenced),
                rel=1e-4)
        assert fit["B"] / fit["A"] == pytest.approx(0.9502, abs=1e-4)

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
        res = experiments.run_noise_budget(s)
        npt.assert_array_equal(res.raw["mw_amplitude"], 0.0)
        npt.assert_array_equal(res.filtered["mw_amplitude"], 0.0)

    def test_white_budget_closed_form(self):
        s0 = 4e-9
        s = make_scenario(
            n_sequences=512,
            noise={"laser_intensity": {"white": s0}})
        res = experiments.run_noise_budget(s)
        f_top = 1.0 / s.sequence.sequence_time
        expected = res.slopes["laser_intensity"] * np.sqrt(
            s0 * (f_top - res.freqs))
        npt.assert_allclose(res.raw["laser_intensity"], expected,
                            rtol=1e-9, atol=1e-30)

    def test_sigma1_matches_shot_prediction(self):
        # the noise-free Monte Carlo samples the exact shot variance the
        # budget reports, for exact Poisson counts (1e9 cps) and their
        # Gaussian limit, with the reference on and off; s^2 / sigma^2 of
        # m values has the standard deviation sqrt(2 / (m - 1))
        n = 1 << 16
        for rate in (1e9, 9.277e18):
            for reference in (True, False):
                s = make_scenario(n_sequences=n, schemes=["A", "B", "C", "D"],
                                  readout={"photon_rate_cps": rate,
                                           "reference_enabled": reference})
                sigma1 = experiments.run_noise_budget(s).sigma1
                series = experiments._scheme_series(
                    s, np.zeros(n), np.zeros(n), np.zeros((2, n)))
                for scheme, sampled in series.items():
                    m = sampled.values.size
                    ratio = sampled.values.var(ddof=1) / sigma1[scheme] ** 2
                    assert abs(ratio - 1.0) < 5 * np.sqrt(2 / (m - 1)), \
                        (rate, reference, scheme, ratio)

    def test_microwave_slope_subtracts_the_end_window_dip(self):
        # at a 30 us repolarization the end window still carries 5% of the
        # spin dip, which the budget's referenced scheme D subtracts: the
        # microwave slopes shrink by the sampled B/A response ratio
        s = make_scenario(n_sequences=512,
                          readout={"photon_rate_cps": 9.277e18,
                                   "repolarization_time_s": 30e-6})
        res = experiments.run_noise_budget(s)
        slope_g, slope_f = experiments.error_conversion_slopes(s)
        d0, d1 = (readout.window_dip_fraction(s.readout, k) for k in (0, 1))
        assert (d0 - d1) / d0 == pytest.approx(0.950213, abs=1e-6)
        per_population = s.readout.contrast * (d0 - d1)
        assert res.slopes["mw_amplitude"] == slope_g * per_population
        assert res.slopes["mw_frequency"] == slope_f * per_population
        assert res.slopes["mw_amplitude"] == pytest.approx(0.0068170,
                                                           rel=1e-4)

    @pytest.mark.parametrize("channel", [0, 1], ids=["amplitude", "frequency"])
    def test_budget_slopes_omit_the_decay_envelope(self, baseline_scenario,
                                                   channel):
        # the sampled (decayed) echo's slope is the envelope times the
        # budget's conversion slope
        s, q = baseline_scenario, baseline_scenario.sequence
        step = (3e-4, 30.0)[channel]
        errors = [[0.0, 0.0], [0.0, 0.0]]
        errors[channel][1] = step
        p = sq.echo_populations(q.phase_time, q.rabi, s.hamiltonian, *errors,
                                decay=s.decay, final_phase=q.final_phase,
                                m_i_values=q.m_i_values())
        sampled = abs(p[1] - p[0]) / step
        budget = experiments.error_conversion_slopes(s)[channel]
        envelope = s.decay.envelope(q.phase_time)
        assert envelope == pytest.approx(np.exp(-0.5), rel=1e-15)
        assert sampled == pytest.approx(envelope * budget, rel=1e-9)

    def test_tables_do_not_depend_on_the_seed(self, tmp_path):
        # the budget draws no random numbers
        runs = [experiments.run_noise_budget(
            make_scenario(n_sequences=512, master_seed=seed,
                          schemes=["A", "B", "C", "D"], noise=NOISY),
            out_dir=tmp_path / str(seed)) for seed in (1, 2)]
        assert [p.name for p in runs[0].outputs] == \
            [p.name for p in runs[1].outputs]
        for a, b in zip(runs[0].outputs, runs[1].outputs):
            assert a.read_bytes() == b.read_bytes()

    def test_filtered_amplitude_budget_below_sigma1(self, baseline_scenario):
        res = experiments.run_noise_budget(baseline_scenario)
        assert np.all(res.filtered["mw_amplitude"] <= res.sigma1["B"])
        # while the raw budget exceeds it at low frequency
        assert res.raw["mw_amplitude"].max() > res.sigma1["B"]


NOISY = {
    "laser_intensity": {"flicker": [[1e-12, 2.0]], "f_min_Hz": 1e-2,
                        "f_max_Hz": 5e4},
    "mw_amplitude": {"flicker": [[6.8e-9, 1.0]], "f_min_Hz": 1e-3,
                     "f_max_Hz": 6250.0},
}


class TestRunRecord:
    RUNNERS = {
        "sweep": lambda s, out: experiments.run_ac_sweep(s, [0.0, 1e-8],
                                                         out_dir=out),
        "scaling": lambda s, out: experiments.run_scaling_experiment(
            s, out_dir=out),
        "budget": lambda s, out: experiments.run_noise_budget(s, out_dir=out),
    }

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_started_before_the_work(self, tmp_path, monkeypatch, runner):
        # every runner evaluates the echo
        calls = []
        original = sq.echo_populations

        def recording(*args, **kwargs):
            calls.append(datetime.now(timezone.utc))
            return original(*args, **kwargs)

        monkeypatch.setattr(sq, "echo_populations", recording)
        result = self.RUNNERS[runner](make_scenario(n_sequences=64), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {"scenario_hash", "seed", "tool_version",
                                 "started", "finished", "outputs"}
        started = datetime.fromisoformat(manifest["started"])
        assert started <= calls[0] <= datetime.fromisoformat(
            manifest["finished"])
        assert sorted(manifest["outputs"]) == sorted(
            p.name for p in result.outputs)


class TestSchemeGroups:
    """A/B share one window record on one stream, C/D one on another."""

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
        budgets = [experiments.run_noise_budget(s)
                   for s in runs]
        assert budgets[0].sigma1[scheme] == budgets[1].sigma1[scheme]

    def test_one_draw_per_group_feeds_both_schemes(self, monkeypatch):
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

    def test_second_paired_sequence_runs_at_negated_final_phase(
            self, monkeypatch):
        calls = []
        original = readout.sequence_signals

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(readout, "sequence_signals", recording)
        s = make_scenario(n_sequences=64, schemes=["C", "D"],
                          sequence={"phase_time_s": 50e-6,
                                    "sequence_time_s": 160e-6,
                                    "rabi_Hz": 5e6, "final_phase_rad": 0.7})
        experiments.run_scaling_experiment(s)
        (populations, _, _, _, balance), = calls
        q = s.sequence
        for sl, phase in ((slice(0, None, 2), 0.7), (slice(1, None, 2), -0.7)):
            echo = sq.echo_populations(q.phase_time, q.rabi, s.hamiltonian,
                                       decay=s.decay, final_phase=phase,
                                       m_i_values=q.m_i_values())[0]
            npt.assert_allclose(populations[sl], echo, rtol=0, atol=1e-14)
            npt.assert_allclose(balance[sl], echo, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("field", [0.0, 5e-8])
    def test_paired_even_sequences_share_the_single_echo(self, monkeypatch,
                                                         field):
        # both groups' populations come from one echo per chunk; C/D's
        # even sequences run at A/B's final phase, so their populations
        # are A/B's bit for bit
        populations = []
        original = readout.sequence_signals

        def recording(*args, **kwargs):
            populations.append(np.array(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(readout, "sequence_signals", recording)
        n = CHUNK_SIZE + 6
        s = make_scenario(n_sequences=n, schemes=["A", "B", "C", "D"],
                          noise=NOISY)
        dg, df, eps = experiments._noise_record(s, n)
        experiments._scheme_series(s, dg, df, eps, field_amplitude=field)
        # per chunk, A/B's draw comes first, then C/D's
        single = np.concatenate(populations[0::2])
        paired = np.concatenate(populations[1::2])
        assert single.size == paired.size == n
        npt.assert_array_equal(paired[0::2], single[0::2])
        assert not np.array_equal(paired[1::2], single[1::2])


class TestChunkedEcho:
    """The echo is evaluated one chunk at a time, and every chunk starts
    at a multiple of ``CHUNK_SIZE``: that bounds the memory of a run, and
    numpy rounds an array's tail differently from its body, so other
    boundaries would change the last bits of the populations."""

    STEP = 1e-9

    def record_chunks(self, monkeypatch, n):
        # drive errors that encode each sequence's index in its record
        def indexed(scenario, n_total):
            return ((np.arange(n_total) % n) * self.STEP, np.zeros(n_total),
                    np.zeros((2, n_total)))

        chunks = []
        original = sq.echo_populations

        def recording(*args, **kwargs):
            dg = np.asarray(args[3])
            if dg.ndim:  # not the working-point balance
                chunks.append((round(dg[0] / self.STEP), dg.size))
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "_noise_record", indexed)
        monkeypatch.setattr(sq, "echo_populations", recording)
        return chunks

    def test_scaling_run(self, monkeypatch):
        n = 2 * CHUNK_SIZE + 4096
        chunks = self.record_chunks(monkeypatch, n)
        s = make_scenario(n_sequences=n, schemes=["A", "B", "C", "D"])
        experiments.run_scaling_experiment(s)
        record = [(0, CHUNK_SIZE), (CHUNK_SIZE, CHUNK_SIZE),
                  (2 * CHUNK_SIZE, 4096)]
        assert chunks == record  # one echo per chunk, shared by both groups

    def test_sweep(self, monkeypatch):
        n = CHUNK_SIZE + 2048
        chunks = self.record_chunks(monkeypatch, n)
        s = make_scenario(n_sequences=n, schemes=["B", "D"])
        experiments.run_ac_sweep(s, [0.0, 5e-8])
        record = [(0, CHUNK_SIZE), (CHUNK_SIZE, 2048)]
        assert chunks == 2 * record  # two amplitudes, one echo per chunk
