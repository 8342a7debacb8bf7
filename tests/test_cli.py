import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nvmag.cli import _COMMANDS, main

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

    # each of these passed validate and then made a runner exit 2, or was
    # silently misread
    @pytest.mark.parametrize("sequence, extra", [
        ("", "noise: {laser_intensity: {file: missing.csv}}\n"),
        ("", "decay: {t2_s: 1.0e-6, exponent: 200}\n"),
        ("hyperfine_average: 'no', ", ""),
        ("", "readout: {photon_rate_cps: 1.0e+12, reference_enabled: 'false'}\n"),
        ("substeps_per_period: 256, ", ""),
        ("", "readout: {photon_rate_cps: 1.0e+12, bin_width_s: 1.0e-6}\n"),
        ("", "bin_width_s: 1.0e-6\n"),
    ], ids=["missing-psd-file", "envelope-overflow", "string-hyperfine-flag",
            "string-reference-flag", "retired-substeps-key",
            "retired-bin-width-key", "unknown-top-level-key"])
    def test_bad_config_exits_1(self, tmp_path, capsys, sequence, extra):
        path = tmp_path / "bad.yaml"
        text = ("name: bad\nn_sequences: 64\n"
                f"sequence: {{{sequence}phase_time_s: 5.0e-5, "
                "sequence_time_s: 1.6e-4}\n")
        if not extra.startswith("readout"):
            text += "readout: {photon_rate_cps: 1.0e+12}\n"
        path.write_text(text + extra)
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["scaling", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        for key in ("missing.csv", "substeps_per_period", "bin_width_s"):
            if key in text + extra:
                assert key in err

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


def _entries(node, path=()):
    """``(path, is_leaf)`` of every entry of a parsed YAML tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        leaf = not isinstance(value, (dict, list))
        yield path + (key,), leaf
        if not leaf:
            yield from _entries(value, path + (key,))


FUZZ_BASE = yaml.safe_load(SCENARIO_FILE.read_text())
FUZZ_BASE["n_sequences"] = 64
FUZZ_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 1e300, 1e-300, "x",
               None, [], {}, True]
DROP = object()
LEAVES = [path for path, leaf in _entries(FUZZ_BASE) if leaf]
KEYS = [path for path, _ in _entries(FUZZ_BASE) if isinstance(path[-1], str)]


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mutation=st.one_of(
        st.tuples(st.sampled_from(LEAVES), st.sampled_from(FUZZ_VALUES))
        .filter(lambda m: m != (("n_sequences",), 1e300)),
        st.tuples(st.sampled_from(KEYS), st.just(DROP))))
    def test_mutated_baseline_exits_0_or_1_everywhere(self, mutation):
        """One leaf of the baseline scenario (64 sequences) replaced by an
        extreme or ill-typed value, or one key dropped: ``validate`` and
        every runner agree, all exiting 0 or all exiting 1, never 2.

        ``n_sequences`` is never drawn above 4096: a run that exhausts
        memory is a resource limit, not a configuration error.
        """
        (*parents, last), value = mutation
        mapping = copy.deepcopy(FUZZ_BASE)
        node = mapping
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.yaml"
            path.write_text(yaml.safe_dump(mapping))
            codes = {command: main(
                [command, "--config", str(path)]
                + ([] if command == "validate" else ["--out", f"{tmp}/out"]))
                for command in _COMMANDS}
        assert set(codes.values()) in ({0}, {1}), (mutation, codes)


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing the package must not
    # pay for it
    code = ("import nvmag, sys; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ,
                                                PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
