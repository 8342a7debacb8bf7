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
            "b0253aad3ad2d9349439f8e5dd03836c6d2a472035e528685c04b0d71fff5a4e",
        "error_scaling_frequency.csv":
            "39786db280e6139cba61af9069f07ba5199b71ea780eb7f9e960571c5cc82598",
    },
    "budget": {
        "budget_filtered_D_laser_intensity.csv":
            "de4279daa15127f4d15b3d9860009dd1f5012f1262e2b91176435a36eab3a537",
        "budget_filtered_D_mw_amplitude.csv":
            "f924daf0257412a937b6fe54037634d50735b3f37ffc3912205710af459cf79d",
        "budget_filtered_D_mw_frequency.csv":
            "11c24c79275c684190d826a65b5ef196daaa7bcf35d73dfa69f2bc2b21603203",
        "budget_raw_laser_intensity.csv":
            "5c6134ccbdf7c326f7d702ec8f1148d6e356e2fb22f51738361045f7c6d04c29",
        "budget_raw_mw_amplitude.csv":
            "8499c5a4c24a3e15afd074294115374b1a7c61a9e0ae4acee1bfa3331bf0c24c",
        "budget_raw_mw_frequency.csv":
            "680cf7c8b8819766dded8f89151f89ccff9dd908b0f32d95db0cd7c1324dde30",
        "sigma1.csv":
            "86c0dafc867e6a30d78031e49614fdedcfc262705db86c64a34000e090915f34",
    },
    "scaling": {
        "allan_A.csv":
            "1038eb812b18ca9d3e1513d8938e9a07786260ba48e97f0147485ce4a44b16d3",
        "allan_B.csv":
            "bf4edbd11d4dc148cf266665ff53720a76e7fee9c881eeb3911ef35d63ede0f1",
        "allan_C.csv":
            "835a59aecc926f9c4a0b4980543f26ee6a99c2685e677c8bcb362355ba13df96",
        "allan_D.csv":
            "aa9627698bcae057684a2f4be0826e4111eb2a7e8bca0d36e990c4020d419e6e",
        "series_A.csv":
            "fc319a7d9912d40b4f5947353e260d0c9a12599bf0ffcf4234e7de2a4a25c96a",
        "series_B.csv":
            "0e56dbc3877a93bd86c8bdb178b5a058a06ca4b672839d97c75ae0c16d10d8ac",
        "series_C.csv":
            "d5f878e7a0c8b2e16f3ddb727e12941207284d48c8f3296a89d3470417af90dc",
        "series_D.csv":
            "fd346603a3fb01c3b240d2d802d9313a9e6127689ffda5e3c28f9b03159de924",
        "std_A.csv":
            "51d1014b24ebca5f0408791110e7a6547f1730a0de06a64ccd20135004fd10ed",
        "std_B.csv":
            "cce7e6cc6bc921ce82742f6961ecb9434702153416319f585414fb9db39adeb7",
        "std_C.csv":
            "0746964d915974d7215b8d1da9a1b22ca6c7b722b35c9cf78998759de5372bbc",
        "std_D.csv":
            "30272dd445095cc7c37345f6cb7fba567522e8f391812ae423d53b76cfee4189",
    },
    "scaling-no-laser": {
        "allan_A.csv":
            "529291ecceb272d7e994c1021ab8613a324168397dedd92d8b4f8981eae91fda",
        "allan_B.csv":
            "1775f02dcd47533074b09cb002e444fdf2ce7baa849e6b84214d231ea2abf397",
        "allan_C.csv":
            "79c242dd6151987beae892c40503ba7ee6cc62fde438087481da4c079ddd409a",
        "allan_D.csv":
            "8e7fbffa92c13f32baed2b118d4d9403b918be1172965f688413f3a96f7a90fa",
        "series_A.csv":
            "c9d03d429b0cf520aeaf65288ee7c90f942b957d8747f5187f25e7f5312e4279",
        "series_B.csv":
            "b683191ab920c7bb36ed4c1d9bbaa9fa466bbbefd93b4c213bc94b730b4792fd",
        "series_C.csv":
            "53cb3117e813a5af3f939f1d73e936e283403ee324f1fea3c3989e195999b332",
        "series_D.csv":
            "0a723676af97018ca6dd262f2725ff2b92d9a4a4cc984984e45d6aab1f9b0280",
        "std_A.csv":
            "e0aa4eea9502b0a912beedafb5b794f3e407879b206cff07dcd3033d6c7999fe",
        "std_B.csv":
            "0e9c28763edeae61f64ca9de79ac7408b1bf7cceaa5cb65a8ad054abd138092a",
        "std_C.csv":
            "a3a37f98a028ea8cbfd2b529ab659cb8adeebce1e7e304e0a1238752118aa786",
        "std_D.csv":
            "6431bc9890b501f4e11bba17260f975630fa1ede1f799b674ce230131ce28569",
    },
    "sweep": {
        "sweep.csv":
            "cc6b365f305c6aa9ab27db9a338c59b9777759782920cba0cb314d9c5be23a50",
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
