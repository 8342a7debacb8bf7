import copy
import dataclasses

import numpy as np
import pytest

from nvmag.noise import PsdModel, TabulatedPsd
from nvmag.sequences import CoherenceDecay, echo_populations
from conftest import SCENARIO_FILE
from nvmag.scenario import (ConfigError, MAX_LASER_SAMPLES_PER_SEQUENCE,
                            load_scenario, scenario_from_mapping,
                            scenario_hash)
from nvmag import io as _io
from nvmag.spin import HamiltonianParams

MINIMAL = {
    "name": "unit",
    "master_seed": 5,
    "n_sequences": 64,
    "schemes": ["B", "D"],
    "sequence": {"phase_time_s": 50e-6, "sequence_time_s": 160e-6},
    "readout": {"photon_rate_cps": 1e12},
}


class TestLoading:
    def test_baseline_scenario_loads(self, baseline_scenario):
        s = baseline_scenario
        assert s.name == "baseline"
        assert s.sequence.phase_time == pytest.approx(50e-6)
        assert s.readout.photon_rate == pytest.approx(9.277e18)
        assert s.hamiltonian == HamiltonianParams(gamma_e=28.7e9,
                                                  hyperfine=2.16e6)
        assert set(s.noise) == {"laser_intensity", "mw_amplitude",
                                "mw_frequency"}

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no/such"):
            load_scenario(tmp_path / "no" / "such.yaml")

    def test_broken_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: [unterminated\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_minimal_mapping(self):
        s = scenario_from_mapping(copy.deepcopy(MINIMAL))
        assert s.name == "unit"
        assert s.decay == CoherenceDecay()  # no decay: envelope 1
        assert s.decay.envelope(s.sequence.phase_time) == 1.0

    def test_required_keys(self):
        bad = copy.deepcopy(MINIMAL)
        del bad["sequence"]["phase_time_s"]
        with pytest.raises(ConfigError, match="phase_time_s"):
            scenario_from_mapping(bad)

    def test_string_floats_accepted(self):
        # YAML treats unsigned exponents as strings; the schema coerces
        m = copy.deepcopy(MINIMAL)
        m["readout"]["photon_rate_cps"] = "9.3e18"
        s = scenario_from_mapping(m)
        assert s.readout.photon_rate == pytest.approx(9.3e18)

    def test_integral_floats_accepted(self):
        # YAML reads 1.0e+6 as a float; an integral one is a valid count
        m = copy.deepcopy(MINIMAL)
        m.update(n_sequences=1.0e+6, master_seed=7.0)
        s = scenario_from_mapping(m)
        assert (s.n_sequences, s.master_seed) == (1000000, 7)
        assert type(s.n_sequences) is int and type(s.master_seed) is int


class TestValidation:
    def test_empty_name(self):
        m = copy.deepcopy(MINIMAL)
        m["name"] = ""
        with pytest.raises(ConfigError):
            scenario_from_mapping(m)

    def test_too_few_sequences(self):
        m = copy.deepcopy(MINIMAL)
        m["n_sequences"] = 1
        with pytest.raises(ConfigError):
            scenario_from_mapping(m)

    def test_unknown_scheme(self):
        m = copy.deepcopy(MINIMAL)
        m["schemes"] = ["B", "X"]
        with pytest.raises(ConfigError):
            scenario_from_mapping(m)

    def test_paired_scheme_needs_even_count(self):
        m = copy.deepcopy(MINIMAL)
        m["n_sequences"] = 63
        with pytest.raises(ConfigError):
            scenario_from_mapping(m)

    def test_unknown_noise_channel(self):
        m = copy.deepcopy(MINIMAL)
        m["noise"] = {"cosmic_rays": {"white": 1.0}}
        with pytest.raises(ConfigError):
            scenario_from_mapping(m)

    def test_unknown_noise_channel_built_in_code(self, baseline_scenario):
        # the key names the channel, so a model under an unknown key is
        # refused however the scenario is built
        with pytest.raises(ConfigError, match="unknown noise channel"):
            dataclasses.replace(baseline_scenario,
                                noise={"cosmic_rays": PsdModel(white=1.0)})

    def test_inconsistent_units_rejected(self):
        m = copy.deepcopy(MINIMAL)
        m["sequence"]["phase_time_s"] = 2e-4  # longer than the sequence
        with pytest.raises(ConfigError):
            scenario_from_mapping(m)

    # each of these once passed validation and then failed a runner
    @pytest.mark.parametrize("section, key, value", [
        (None, "schemes", ["AB"]),
        (None, "schemes", [""]),
        (None, "schemes", ["B", "B"]),
        (None, "schemes", []),
        ("readout", "photon_rate_cps", float("nan")),
        ("decay", "t2_s", float("nan")),
        (None, "master_seed", -1),
        ("sequence", "rabi_Hz", 1e3),
        ("sequence", "sequence_time_s", 120e-6),
        (None, "n_sequences", 2),
        (None, "n_sequences", float("inf")),
        ("hamiltonian", "gamma_e_Hz_per_T", 0.0),
        ("hamiltonian", "hyperfine_Hz", 1e300),
        ("sequence", "rabi_Hz", 1e300),
        ("sequence", "sequence_time_s", 1e300),
        ("readout", "window_time_s", 0.0),
        ("readout", "window_time_s", 1e-300),
        ("readout", "window_time_s", 60e-6),
        ("decay", "t2_s", 1e-300),
        ("decay", "exponent", 0.0),
        ("decay", "exponent", 1e-300),
        ("ensemble", "n_centres", 0.0),
        ("analysis", "total_time_s", -1.0),
        ("readout", "reference_ratio", 1e305),
        ("readout", "photon_rate_cps", 1e-320),
        ("noise", "mw_amplitude", {"white": 1e300}),
        ("noise", "laser_intensity", {"white": 1e-6}),
        ("noise", "laser_intensity", {"flicker": [[1e300, 2.0]]}),
    ], ids=["substring-scheme", "empty-scheme", "duplicate-scheme",
            "no-scheme", "nan-photon-rate", "nan-t2", "negative-seed",
            "pulses-too-long", "laser-overruns-sequence",
            "one-paired-value", "infinite-count", "zero-gamma",
            "non-finite-echo-hyperfine", "non-finite-echo-rabi",
            "unresolvable-sequence-shift", "zero-window",
            "unresolvable-window", "overlapping-windows",
            "envelope-underflow", "zero-exponent", "optimum-overflow",
            "no-centres", "negative-total-time", "infinite-reference-counts",
            "underflowing-window-counts",
            "non-finite-echo-mw-noise", "laser-excursion-reaches-one",
            "laser-flicker-overflows-rate"])
    def test_runner_failures_are_config_errors(self, section, key, value):
        m = copy.deepcopy(MINIMAL)
        m["decay"] = {"t2_s": 100e-6}
        (m if section is None else m.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigError):
            scenario_from_mapping(m)

    @pytest.mark.parametrize("section, key", [
        ("sequence", "final_phase_rad"),
        ("readout", "repolarization_time_s"),
        ("decay", "exponent"),
        ("ensemble", "n_centres"),
        ("analysis", "total_time_s"),
    ])
    def test_non_finite_values_rejected(self, section, key):
        m = copy.deepcopy(MINIMAL)
        m["decay"] = {"t2_s": 100e-6}
        m.setdefault(section, {})[key] = float("inf")
        with pytest.raises(ConfigError, match="finite"):
            scenario_from_mapping(m)

    # the carrier frame cancels these terms, so no key sets them
    @pytest.mark.parametrize("key", ["zero_field_splitting_Hz",
                                     "gamma_n_Hz_per_T", "static_field_T"])
    def test_retired_hamiltonian_keys_rejected(self, key):
        m = copy.deepcopy(MINIMAL)
        m["hamiltonian"] = {key: 1.0}
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            scenario_from_mapping(m)

    @pytest.mark.parametrize("factor, laser, ok", [
        (0.99, {"white": 1e-12}, False),
        (1.01, {"white": 1e-12}, True),
        (0.99, {"white": 0.0}, True),
    ], ids=["over-limit", "under-limit", "zero-model"])
    def test_laser_trace_samples_bounded(self, factor, laser, ok):
        # two trace samples per integration window and sequence
        m = copy.deepcopy(MINIMAL)
        m["readout"]["window_time_s"] = factor * 2 * 160e-6 / \
            MAX_LASER_SAMPLES_PER_SEQUENCE
        m["noise"] = {"laser_intensity": laser}
        if ok:
            scenario_from_mapping(m)
        else:
            with pytest.raises(ConfigError, match="trace samples"):
                scenario_from_mapping(m)

    @pytest.mark.parametrize("channel, limit", [("mw_amplitude", 1.0),
                                                ("mw_frequency", 2.16e6)])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_microwave_excursion_bounded(self, channel, limit, factor):
        # white noise over the scaling band 1/(n T_seq) to 1/(2 T_seq),
        # scaled so its ten-sigma excursion is the factor times the limit
        band = 0.5 / 160e-6 - 1.0 / (64 * 160e-6)
        m = copy.deepcopy(MINIMAL)
        m["noise"] = {channel: {"white": (factor * limit / 10) ** 2 / band}}
        if factor < 1:
            scenario_from_mapping(m)
        else:
            with pytest.raises(ConfigError, match="ten-sigma"):
                scenario_from_mapping(m)

    def test_non_finite_noise_level_rejected(self):
        m = copy.deepcopy(MINIMAL)
        m["noise"] = {"laser_intensity": {"white": float("nan")}}
        with pytest.raises(ConfigError, match="finite"):
            scenario_from_mapping(m)

    @pytest.mark.parametrize("phase", [np.pi / 3, np.pi / 4, np.pi / 8,
                                       -np.pi / 4])
    def test_field_response_follows_the_final_phase(self, phase):
        # the sampled echo's field slope (hyperfine-averaged, with the
        # decay), by central differences, at the final phase against at
        # pi/2: the ratio of the field responses, |sin(final_phase)|
        def scenario(final_phase):
            m = copy.deepcopy(MINIMAL)
            m["sequence"]["final_phase_rad"] = final_phase
            m["decay"] = {"t2_s": 100e-6}
            return scenario_from_mapping(m)

        def slope(s, step=1e-9):
            q = s.sequence
            up, down = (echo_populations(
                q.phase_time, q.rabi, s.hamiltonian, 0.0, 0.0, field,
                s.decay, final_phase=q.final_phase,
                m_i_values=q.m_i_values())[0] for field in (step, -step))
            return (up - down) / (2 * step)

        at, top = scenario(phase), scenario(np.pi / 2)
        sampled = slope(at) / slope(top)
        assert abs(sampled) == pytest.approx(abs(np.sin(phase)), rel=1e-9)
        for scheme in ("B", "D"):
            assert at.field_response(scheme) / top.field_response(scheme) \
                == pytest.approx(abs(sampled), rel=1e-9)


class TestRoundTrip:
    def test_hash_is_stable(self, baseline_scenario):
        again = load_scenario(SCENARIO_FILE)
        assert scenario_hash(baseline_scenario) == scenario_hash(again)

    def test_hash_tracks_content(self, baseline_scenario):
        other = dataclasses.replace(
            baseline_scenario, master_seed=baseline_scenario.master_seed + 1)
        assert scenario_hash(other) != scenario_hash(baseline_scenario)

    def test_scenario_is_frozen(self, baseline_scenario):
        # an assignment would bypass validation
        with pytest.raises(dataclasses.FrozenInstanceError):
            baseline_scenario.n_sequences = 1

    def test_noise_is_read_only(self, baseline_scenario):
        loud = PsdModel(white=1e300)
        with pytest.raises(TypeError):
            baseline_scenario.noise["mw_amplitude"] = loud
        # a rebuilt scenario is validated again
        with pytest.raises(ConfigError):
            dataclasses.replace(baseline_scenario,
                                noise={"mw_amplitude": loud})

    # re-pinned when the noise models lost their channel field, which
    # the scenario's noise key names
    def test_baseline_hash_is_pinned(self, baseline_scenario):
        assert scenario_hash(baseline_scenario) == (
            "ac5be0c096044df20de42a9551e7b71624f8565003825ee8de4cc5b1574cad3e")


class TestSeedStreams:
    def test_channel_streams_are_distinct(self, baseline_scenario):
        seqs = [baseline_scenario.channel_seed(c).generate_state(4).tolist()
                for c in ("laser_intensity", "mw_amplitude", "mw_frequency")]
        assert len({tuple(s) for s in seqs}) == 3

    def test_shot_seed_depends_on_chunk_and_stream(self, baseline_scenario):
        a = baseline_scenario.shot_seed(11, 0).generate_state(4).tolist()
        b = baseline_scenario.shot_seed(11, 1).generate_state(4).tolist()
        c = baseline_scenario.shot_seed(12, 0).generate_state(4).tolist()
        assert a != b and a != c


class TestPsdIngestion:
    def test_spectrum_file_channel(self, tmp_path):
        f = np.logspace(0, 4, 50)
        dens = 1e-6 / f
        _io.write_table(tmp_path / "laser.csv", ["f_Hz", "density"], [f, dens])
        m = copy.deepcopy(MINIMAL)
        m["noise"] = {"laser_intensity": {"file": "laser.csv"}}
        s = scenario_from_mapping(m, base_dir=tmp_path)
        model = s.noise["laser_intensity"]
        assert isinstance(model, TabulatedPsd)
        assert model.density(f[25]) == pytest.approx(dens[25], rel=1e-9)
        assert model.density(0.1) == 0.0
