"""Golden digests: reduced runs of every CLI command on the baseline.

The SHA-256 of every table was recorded before the 9-dimensional model
moved to ``tests/`` and the Hamiltonian keys that change no output were
dropped; refactors that claim byte-identical outputs are held to it.
The three ``budget_filtered_D_*`` digests were re-recorded when the
closed-form filters replaced the segment integrals: only their last row
moved, at 1/T_seq where the paired filter vanishes and both values are
rounding residue of that zero (below 1e-29).  The ``scaling`` and
``sweep`` digests were re-recorded when laser noise became the window
average synthesized at the window centres on the sequence grid: a new
random stream for that channel and a filtered spectrum.  The
``scaling-no-laser`` case, recorded before that change, pins the
microwave synthesis it shares.
The ``budget``, ``error-scaling``, ``scaling``, ``scaling-no-laser`` and
``sweep`` digests were re-recorded when the echo became three rotations
sharing their trigonometry, evaluated one chunk at a time: populations
moved at the last bit (below 1e-14).  The budget and error-scaling
slopes are differences of near-equal populations, so they moved in
their 11th-12th digit; and a few Gaussian-limit counts
``round(m + sqrt(m) z)`` near a half-integer flipped by one photon, which
moves a handful of series values by ``1/window_counts`` and the curves
built on them.  No table moved by more than that.
The budget's ``sigma1.csv`` was re-recorded when the shot-only
deviation became the exact Poisson variance of the noise-free working
point instead of the standard deviation of a 4096-sequence Monte Carlo
on its own seed stream: on the baseline B moved from 2.08015e-07 to
2.07493e-07 and D from 2.90899e-07 to 2.93439e-07, within the scatter
of that Monte Carlo.
numpy does not promise the same random streams across releases, so the
check is skipped under any other numpy version than the recorded one.
"""

import json

import numpy as np
import pytest
import yaml

from nvmag.cli import main
from nvmag.scenario import CHUNK_SIZE

from conftest import SCENARIO_FILE

NUMPY_VERSION = "2.4.6"

BASELINE = yaml.safe_load(SCENARIO_FILE.read_text())
#: three chunks per scheme group
SCALING = {"n_sequences": 2 * CHUNK_SIZE + 4096,
           "schemes": ["A", "B", "C", "D"]}

#: case -> (command, scenario overrides, extra arguments)
RUNS = {
    "sensitivity": ("sensitivity", {}, []),
    "error-scaling": ("error-scaling", {}, []),
    "budget": ("budget", {}, []),
    "scaling": ("scaling", SCALING, []),
    # the microwave channels alone
    "scaling-no-laser": ("scaling", {**SCALING, "noise": {
        k: v for k, v in BASELINE["noise"].items()
        if k != "laser_intensity"}}, []),
    "sweep": ("sweep", {"n_sequences": 4096}, ["--points", "3"]),
}

DIGESTS = {
    "sensitivity": {
        "sensitivity.csv":
            "5cc45da5bb7083697e5071d33784eb3f58755549bb386379e2d7567bc43a9e08",
    },
    "error-scaling": {
        "error_scaling_amplitude.csv":
            "8a874f67301784f8eab8cf0c14eee9065397c7fb9059f989a2705a9a206fcf5d",
        "error_scaling_frequency.csv":
            "d804605d8065fb7b88d9eaea2e87cdde48bbc64a8a5f175ae5120f6dd1f626af",
    },
    "budget": {
        "budget_filtered_D_laser_intensity.csv":
            "de4279daa15127f4d15b3d9860009dd1f5012f1262e2b91176435a36eab3a537",
        "budget_filtered_D_mw_amplitude.csv":
            "8ec5aafb68f0625bd76839fc0ac3646df749939d42d4e09281020e913d92fbff",
        "budget_filtered_D_mw_frequency.csv":
            "17a2f74fa159c3f88acb449e4fa5faf20af08f3d076a2230f27e10d47154a205",
        "budget_raw_laser_intensity.csv":
            "5c6134ccbdf7c326f7d702ec8f1148d6e356e2fb22f51738361045f7c6d04c29",
        "budget_raw_mw_amplitude.csv":
            "40b015ef154990635ca22a298128b4c1484118610560de347000ce33927cd7c3",
        "budget_raw_mw_frequency.csv":
            "3f596f7ba0958fff6b81de8ac5aee525ff496ae12e9d0c3581d22718ea3dd1b9",
        "sigma1.csv":
            "d8a2bec9771f524ffa9a572b485e6d21bda9427306f5567793a0a54a6b23c427",
    },
    "scaling": {
        "allan_A.csv":
            "9089fad8014395c22fdfdd6db78e8ecc338016ae55156aa3ff7bff51fbe92a93",
        "allan_B.csv":
            "ced41b1ddd8ba50181cbd2a091b30affe31e310060ca2cec6c69c2e3757a6c28",
        "allan_C.csv":
            "d5571a8b296bedd8349fcc3dc388401d0d3bc42d00a84ee8ebe3314c93da34ec",
        "allan_D.csv":
            "0ffa85ed210ffed720898a20c2671f9efe6b6c0452c3f22d79516747d01c98f3",
        "series_A.csv":
            "0ff07ee76b30248a4914589d953b7f916d3deceaa2698732e571e26f4a0e0518",
        "series_B.csv":
            "483bb223b3852f7ef8d4e70156c9529e9a412204407cb9db0ee2b20219593cfa",
        "series_C.csv":
            "0182a2976f5c489e5c148637df756ec67403bfdee07b40403856b98e66b3e7e7",
        "series_D.csv":
            "c86b354a59760aece1c28991c2d7fce5e92529d4cb2a9ae7218ad2b3b70ab973",
        "std_A.csv":
            "37e8df983ebb6d541d56d1b36b63cc0d51af237434fdfbdb303040294840a8df",
        "std_B.csv":
            "202979cc73569e308b5342a88e6f94e3677f82ca1ba5de0675c80191a556edb2",
        "std_C.csv":
            "e15cace6c765dee12e6ff9fd88c3f316e4c3cfbfb47fd9cc389486f107aaac24",
        "std_D.csv":
            "643923ea210025a502b5c7342d34917b7954fe65c41cb2e32c075a5a55d95814",
    },
    "scaling-no-laser": {
        "allan_A.csv":
            "fe75df8096255fc8931e39d060ffa20553d8fb23d7b721509f6a8f19cdeb3929",
        "allan_B.csv":
            "3ad7a5174c1381977cdca34d96cbb4279692475182bd1cb055cf51aa94ca44c8",
        "allan_C.csv":
            "79c242dd6151987beae892c40503ba7ee6cc62fde438087481da4c079ddd409a",
        "allan_D.csv":
            "8e7fbffa92c13f32baed2b118d4d9403b918be1172965f688413f3a96f7a90fa",
        "series_A.csv":
            "4c6909ff253a312b3fbe86af0d83dc369a4536eda7bb91ac79d4c604de81ac6a",
        "series_B.csv":
            "ae5c5dfa967a6af451ad233d3f34d945b15d7767cb8eb817134a9507a6e2eda0",
        "series_C.csv":
            "53cb3117e813a5af3f939f1d73e936e283403ee324f1fea3c3989e195999b332",
        "series_D.csv":
            "0a723676af97018ca6dd262f2725ff2b92d9a4a4cc984984e45d6aab1f9b0280",
        "std_A.csv":
            "b789945aa5d1c1326b64d41eb94c25a85182b7497e46952017bf277f6c43596b",
        "std_B.csv":
            "a7cd7a797f5913dca6dd3bbdcd76a4bbe93123832022ab86d2dd60a2380fd3f9",
        "std_C.csv":
            "a3a37f98a028ea8cbfd2b529ab659cb8adeebce1e7e304e0a1238752118aa786",
        "std_D.csv":
            "6431bc9890b501f4e11bba17260f975630fa1ede1f799b674ce230131ce28569",
    },
    "sweep": {
        "sweep.csv":
            "7fbcf450a796d05cd2b156226376e0bace65ff53d5ef2b7aefad6ff7a239f843",
        "sweep_response.csv":
            "f5ecd32f1274bd14c4c12bfddc5f62f876ab5e6c32ae2d0b2212c4c5099b034a",
    },
}


def table_digests(case, tmp_path):
    command, overrides, extra = RUNS[case]
    mapping = {**BASELINE, **overrides}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(mapping))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]
                + extra) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {
        p.name for p in out.iterdir() if p.name != "manifest.json"}
    return manifest["outputs"]


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests recorded with numpy {NUMPY_VERSION}; "
                           f"numpy {np.__version__} may draw other streams")
@pytest.mark.parametrize("case", sorted(RUNS))
def test_tables_match_recorded_digests(case, tmp_path):
    assert table_digests(case, tmp_path) == DIGESTS[case]
