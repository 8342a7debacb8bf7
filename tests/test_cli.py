import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nvmag import experiments, io as _io
from nvmag.cli import _COMMANDS, main
from nvmag.scenario import load_scenario, scenario_hash

from conftest import SCENARIO_FILE

SCENARIO = str(SCENARIO_FILE)


class TestValidate:
    def test_shipped_scenario_is_valid(self, capsys):
        assert main(["validate", "--config", SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_missing_config_names_path(self, tmp_path, capsys):
        # a missing file, a directory, and a file that is not UTF-8
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"name: \xff\xfe\n")
        for path, says in [("no/such/file.yaml", "scenario file not found"),
                           (str(tmp_path), "cannot read scenario file"),
                           (str(bad), "invalid start byte")]:
            assert main(["validate", "--config", path]) == 1, path
            err = capsys.readouterr().err
            assert path in err and says in err, err

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
        ("", "readout: {photon_rate_cps: 1.0e+12, laser_time_s: 1.2e-4}\n"),
        ("alternate_final_phase_rad: -1.0, ", ""),
        ("final_phase_rad: 0.0, ", ""),
        ("", "ac_field: {amplitude_T: 0.0}\n"),
        ("", "noise: {mw_frequency: {flicker: [[1.0e+300, 1.0]]}}\n"),
        ("", "noise: {mw_amplitude: {white: 1.0e+6}}\n"),
        ("", "n_sequences: 2000.9\n"),
        ("", "master_seed: 7.5\n"),
        ("", "master_seed: true\n"),
        ("", "schemes: BD\n"),
        ("", "analysis: {sigma1: 0.01}\n"),
        ("", "analysis: {response_amplitude: 0.04}\n"),
    ], ids=["missing-psd-file", "envelope-overflow", "string-hyperfine-flag",
            "string-reference-flag", "retired-substeps-key",
            "retired-bin-width-key", "unknown-top-level-key",
            "overfull-sequence", "retired-alternate-phase-key",
            "final-phase-without-field-response",
            "retired-ac-field-section", "carrier-leaves-its-line",
            "drive-changes-sign", "fractional-count", "fractional-seed",
            "boolean-seed", "string-schemes", "retired-sigma1-key",
            "retired-response-amplitude-key"])
    def test_bad_config_exits_1(self, tmp_path, capsys, sequence, extra):
        path = tmp_path / "bad.yaml"
        text = (f"name: bad\nsequence: {{{sequence}phase_time_s: 5.0e-5, "
                "sequence_time_s: 1.6e-4}\n")
        for key, value in (("n_sequences", "64"),
                           ("readout", "{photon_rate_cps: 1.0e+12}")):
            if not extra.startswith(key):
                text += f"{key}: {value}\n"
        path.write_text(text + extra)
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["scaling", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        if "missing.csv" in extra:
            assert "missing.csv" in err
        if sequence.startswith("final_phase_rad"):
            assert "field response 0 per tesla" in err
        for key in ("n_sequences", "master_seed", "schemes"):
            if extra.startswith(key):
                assert f"{key} must be" in err
        for key in ("substeps_per_period", "bin_width_s",
                    "alternate_final_phase_rad", "ac_field", "sigma1",
                    "response_amplitude"):
            if key in text + extra:
                assert f"unknown key '{key}'" in err

    # a NUL or a default output directory out/<name>-<command> longer
    # than one 255-byte path component passed validate, then made every
    # output command exit 2; the longest command is error-scaling
    @pytest.mark.parametrize("name, code", [
        ("a\0b", 1), ("n" * 300, 1), ("\u00e9" * 121, 1), ("\u00e9" * 120, 0),
    ], ids=["nul", "300-characters", "256-byte-directory",
            "254-byte-directory"])
    def test_name_must_give_a_writable_default_directory(
            self, tmp_path, monkeypatch, capsys, name, code):
        mapping = yaml.safe_load(SCENARIO_FILE.read_text())
        mapping["name"] = name
        path = tmp_path / "named.yaml"
        path.write_text(yaml.safe_dump(mapping))
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--config", str(path)]) == code
        if code:
            assert main(["sensitivity", "--config", str(path)]) == 1
            assert "scenario name" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        else:
            assert main(["error-scaling", "--config", str(path)]) == 0
            assert (tmp_path / "out" / f"{name}-error-scaling").is_dir()

    # a name holding a path separator passed validate, and the default
    # directory out/<name>-<command> then left out/: one level up, or
    # anywhere on disk for an absolute name
    @pytest.mark.parametrize("name", ["../escaped", "nested/name", None],
                             ids=["parent", "nested", "absolute"])
    def test_name_must_keep_the_default_directory_in_out(
            self, tmp_path, monkeypatch, capsys, name):
        if name is None:
            name = str(tmp_path / "escaped")
        mapping = yaml.safe_load(SCENARIO_FILE.read_text())
        mapping["name"] = name
        path = tmp_path / "named.yaml"
        path.write_text(yaml.safe_dump(mapping))
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["sensitivity", "--config", str(path)]) == 1
        assert "scenario name" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [path, run]
        assert not any(run.iterdir())

    # each of these made the sweep exit 2, or fit two parameters to one
    # point and exit 0
    @pytest.mark.parametrize("args", [
        ["--points", "0"],
        ["--points", "-3"],
        ["--points", "1"],
        ["--max-amplitude-T", "nan"],
        ["--max-amplitude-T", "1e300"],
    ], ids=["zero-points", "negative-points", "one-point", "nan-amplitude",
            "overflowing-phase"])
    def test_bad_sweep_arguments_exit_1(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        assert main(["sweep", "--config", SCENARIO, "--out", str(out)]
                    + args) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    # an --out that names a file (EEXIST), or a path through one
    # (ENOTDIR), is refused as configuration before any work
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "below-file"])
    def test_out_that_cannot_be_a_directory_exits_1(self, tmp_path, capsys,
                                                    under):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / under if under else taken
        assert main(["sensitivity", "--config", SCENARIO,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"configuration error: output directory {out}" in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "kept\n"

    # laser noise folding 3.2e10 fine-grid samples per sequence (1e12
    # spectrum evaluations in 3.2e10 blocks) and 2e5 per sequence (2e9
    # evaluations): both must be refused before any trace is synthesized
    @pytest.mark.parametrize("overrides", [
        {"n_sequences": 64, "readout": {"window_time_s": 1e-14}},
        {"sequence": {"sequence_time_s": 1.0}},
    ], ids=["tiny-window", "long-sequence"])
    def test_oversize_laser_trace_exits_1(self, tmp_path, monkeypatch,
                                          overrides):
        from nvmag import noise
        synthesized = []
        monkeypatch.setattr(noise, "synthesize_trace",
                            lambda *args: synthesized.append(args))
        mapping = yaml.safe_load(SCENARIO_FILE.read_text())
        for key, value in overrides.items():
            if isinstance(value, dict):
                mapping[key].update(value)
            else:
                mapping[key] = value
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["scaling", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        assert synthesized == []

    # a repolarization far slower than the laser pulse leaves both
    # windows with the same dip: the window difference of B and D has no
    # field response, while A keeps one
    @pytest.mark.parametrize("schemes, code", [
        (["B", "D"], 1), (["B"], 1), (["D"], 1), (["A"], 0), (["A", "C"], 0),
    ], ids=["BD", "B", "D", "A", "AC"])
    def test_slow_repolarization_rejects_referenced_schemes(
            self, tmp_path, capsys, schemes, code):
        mapping = yaml.safe_load(SCENARIO_FILE.read_text())
        mapping.update(n_sequences=64, schemes=schemes)
        mapping["readout"]["repolarization_time_s"] = 1e300
        path = tmp_path / "slow.yaml"
        path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "run"
        assert main(["validate", "--config", str(path)]) == code
        assert main(["scaling", "--config", str(path),
                     "--out", str(out)]) == code
        if code:
            assert "field response" in capsys.readouterr().err
            assert not out.exists()
            return
        for scheme in schemes:
            table = np.loadtxt(out / f"allan_{scheme}.csv", delimiter=",",
                               skiprows=1, ndmin=2)
            assert np.all(np.isfinite(table[:, 2]))
            assert np.all(table[:, 2] > 0)

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
    def write(self, tmp_path, drop=(), **analysis):
        """The baseline without the sections in ``drop``, with the given
        ``analysis`` keys."""
        mapping = yaml.safe_load(SCENARIO_FILE.read_text())
        for key in drop:
            del mapping[key]
        mapping["analysis"].update(analysis)
        path = tmp_path / "sens.yaml"
        path.write_text(yaml.safe_dump(mapping))
        return str(path)

    def test_no_decay_section_is_no_decay(self, tmp_path, capsys):
        path = self.write(tmp_path, drop=("decay",))
        assert main(["sensitivity", "--config", path,
                     "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "projection limit" in l][0]
        # envelope 1, as the Monte Carlo of the same scenario samples
        expected = 1.0 / (2 * math.pi * 28.7e9 * math.sqrt(1.4e11)
                          * math.sqrt(1.0 / 160e-6) * 50e-6)
        assert float(line.split("=")[1].split()[0]) == \
            pytest.approx(expected, rel=1e-5)
        assert "optimal phase time = inf s" in out

    # fewer than one evaluation used to pass validate
    @pytest.mark.parametrize("analysis", [
        {"total_time_s": 1e-5},
    ], ids=["under-one-sequence"])
    def test_bad_analysis_exits_1(self, tmp_path, capsys, analysis):
        path = self.write(tmp_path, **analysis)
        out = tmp_path / "run"
        assert main(["validate", "--config", path]) == 1
        assert main(["sensitivity", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("schemes", [["B", "D"], ["C", "A"]],
                             ids=["BD", "CA"])
    def test_shot_noise_limit_line_and_columns(self, tmp_path, capsys,
                                               schemes):
        mapping = yaml.safe_load(SCENARIO_FILE.read_text())
        mapping["schemes"] = schemes
        path = tmp_path / "sens.yaml"
        path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "run"
        assert main(["sensitivity", "--config", str(path),
                     "--out", str(out)]) == 0
        _, eta = experiments.shot_noise_limit(load_scenario(path))
        assert list(eta) == schemes
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if "shot-noise-limited" in l]
        assert lines == [f"scheme {s}: shot-noise-limited sensitivity "
                         f"eta = {eta[s]:.6g} T/sqrt(Hz)" for s in schemes]
        with open(out / "sensitivity.csv") as fh:
            header = fh.readline().strip().split(",")
            row = [float(v) for v in fh.readline().split(",")]
        assert header == ["b_qpn_T_per_sqrtHz", "simplified_coefficient",
                          "optimal_phase_time_s"] + \
            [f"eta_{s}_T_per_sqrtHz" for s in schemes]
        for s, value in zip(schemes, row[3:]):
            assert value == pytest.approx(eta[s], rel=1e-11)

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


class TestTabulatedSpectrum:
    """A measured laser spectrum read from a file runs every command."""

    def write(self, tmp_path, bump=1.0):
        """The baseline with a tabulated ``1e-12 / f**2`` laser spectrum,
        one density value scaled by ``bump``."""
        f = np.logspace(-2, np.log10(5e4), 40)
        density = 1e-12 / f**2
        density[7] *= bump
        _io.write_table(tmp_path / "psd.csv", ["f_Hz", "density"],
                        [f, density])
        mapping = yaml.safe_load(SCENARIO_FILE.read_text())
        mapping["n_sequences"] = 64
        mapping["noise"]["laser_intensity"] = {"file": "psd.csv"}
        path = tmp_path / "tabulated.yaml"
        path.write_text(yaml.safe_dump(mapping))
        return path

    def test_all_commands_run(self, tmp_path):
        path = self.write(tmp_path)
        for command in _COMMANDS:
            out = tmp_path / command
            args = [command, "--config", str(path)]
            assert main(args + ([] if command == "validate"
                                else ["--out", str(out)])) == 0, command
            if command == "validate":
                continue
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["outputs"]
            for name, digest in manifest["outputs"].items():
                assert _io.file_digest(out / name) == digest

    def test_hash_tracks_the_table(self, tmp_path):
        hashes = [scenario_hash(load_scenario(self.write(tmp_path, bump)))
                  for bump in (1.0, 1.0, 1.5)]
        assert hashes[0] == hashes[1] != hashes[2]

    # an empty or header-only file made numpy warn on stderr before the
    # error, and one row or a non-finite entry was refused without the
    # file's name
    @pytest.mark.parametrize("table", [
        "", "f_Hz,density\n", "f_Hz,density\n1.0,1.0e-12\n",
        "1.0,1.0e-12\n2.0,nan\n", "1.0,1.0e-12\n2.0,inf\n",
        "2.0,1.0e-12\n1.0,1.0e-12\n", "1.0,1.0e-12\n2.0,-1.0e-12\n",
        "1.0 1.0e-12\n",
    ], ids=["empty", "header-only", "one-row", "nan", "infinite",
            "decreasing", "negative", "one-row-whitespace"])
    def test_bad_file_is_refused_in_one_line(self, tmp_path, capsys, table):
        psd = tmp_path / "psd.csv"
        psd.write_text(table)
        path = tmp_path / "bad.yaml"
        path.write_text("name: bad\nsequence: {phase_time_s: 5.0e-5, "
                        "sequence_time_s: 1.6e-4}\nn_sequences: 64\n"
                        "readout: {photon_rate_cps: 1.0e+12}\n"
                        "noise: {laser_intensity: {file: psd.csv}}\n")
        with warnings.catch_warnings():
            # a warning would be printed to stderr outside pytest
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(psd) in err[0], err

    # each of these keys was silently dropped beside a file
    @pytest.mark.parametrize("key, value", [
        ("white", 1.0e-12), ("flicker", [[1.0e-12, 1.0]]), ("f_min_Hz", 1.0),
        ("f_max_Hz", 10.0)], ids=["white", "flicker", "f-min", "f-max"])
    def test_file_takes_no_other_key(self, tmp_path, capsys, key, value):
        path = self.write(tmp_path)
        mapping = yaml.safe_load(path.read_text())
        mapping["noise"]["laser_intensity"][key] = value
        path.write_text(yaml.safe_dump(mapping))
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "laser_intensity" in err[0] \
            and key in err[0], err


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
