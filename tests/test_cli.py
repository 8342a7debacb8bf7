import json
import time

import pytest

from nvmag.cli import main

from conftest import SCENARIO_FILE

SCENARIO = str(SCENARIO_FILE)


class TestValidate:
    def test_shipped_scenario_is_valid(self, capsys):
        assert main(["validate", "--config", SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_missing_config_names_path(self, capsys):
        code = main(["validate", "--config", "no/such/file.yaml"])
        assert code == 1
        assert "no/such/file.yaml" in capsys.readouterr().err

    def test_unknown_subcommand_prints_usage(self, capsys):
        assert main(["frobnicate", "--config", SCENARIO]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("schemes, rate", [("[AB]", "1.0e+12"),
                                               ("[B, B]", "1.0e+12"),
                                               ("[B]", ".nan")])
    def test_runner_failures_exit_1(self, tmp_path, schemes, rate):
        path = tmp_path / "bad.yaml"
        path.write_text("name: bad\n"
                        f"schemes: {schemes}\n"
                        "sequence: {phase_time_s: 5.0e-5, sequence_time_s: 1.6e-4}\n"
                        f"readout: {{photon_rate_cps: {rate}}}\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["scaling", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1

    def test_negative_seed_override_exits_1(self, tmp_path):
        out = tmp_path / "run"
        assert main(["scaling", "--config", SCENARIO, "--out", str(out),
                     "--seed", "-1"]) == 1
        assert not out.exists()

    def test_invalid_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: ''\n"
                        "sequence: {phase_time_s: 5.0e-5, sequence_time_s: 1.6e-4}\n"
                        "readout: {photon_rate_cps: 1.0e+12}\n")
        assert main(["validate", "--config", str(path)]) == 1


class TestSensitivity:
    def test_projection_limit_line(self, tmp_path, capsys):
        t0 = time.time()
        code = main(["sensitivity", "--config", SCENARIO,
                     "--out", str(tmp_path)])
        elapsed = time.time() - t0
        assert code == 0
        assert elapsed < 1.0
        out = capsys.readouterr().out
        assert "fT/sqrt(Hz)" in out
        line = [l for l in out.splitlines() if "projection limit" in l][0]
        value = float(line.split("=")[1].split()[0])
        assert value == pytest.approx(6e-15, rel=0.10)
        assert (tmp_path / "sensitivity.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "sensitivity.csv" in manifest["outputs"]


class TestRunners:
    def test_scaling_writes_outputs(self, tmp_path, capsys):
        small = tmp_path / "small.yaml"
        small.write_text(
            "name: cli-small\n"
            "master_seed: 3\n"
            "n_sequences: 512\n"
            "schemes: [B]\n"
            "sequence: {phase_time_s: 5.0e-5, sequence_time_s: 1.6e-4}\n"
            "readout: {photon_rate_cps: 1.0e+12}\n")
        out = tmp_path / "run"
        assert main(["scaling", "--config", str(small),
                     "--out", str(out)]) == 0
        assert (out / "series_B.csv").exists()
        assert (out / "manifest.json").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        small = tmp_path / "small.yaml"
        small.write_text(
            "name: cli-seeded\n"
            "master_seed: 3\n"
            "n_sequences: 256\n"
            "schemes: [B]\n"
            "sequence: {phase_time_s: 5.0e-5, sequence_time_s: 1.6e-4}\n"
            "readout: {photon_rate_cps: 1.0e+12}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["scaling", "--config", str(small), "--out", str(a)]) == 0
        assert main(["scaling", "--config", str(small), "--out", str(b),
                     "--seed", "77"]) == 0
        series_a = (a / "series_B.csv").read_bytes()
        series_b = (b / "series_B.csv").read_bytes()
        assert series_a != series_b
