"""Golden digests: reduced runs of every CLI command on the baseline.

The SHA-256 of every table was recorded before the 9-dimensional model
moved to ``tests/`` and the Hamiltonian keys that change no output were
dropped; refactors that claim byte-identical outputs are held to it.
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

#: command -> (scenario overrides, extra arguments)
RUNS = {
    "sensitivity": ({}, []),
    "error-scaling": ({}, []),
    "budget": ({}, []),
    # three chunks per scheme group
    "scaling": ({"n_sequences": 2 * CHUNK_SIZE + 4096,
                 "schemes": ["A", "B", "C", "D"]}, []),
    "sweep": ({"n_sequences": 4096}, ["--points", "3"]),
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
            "1c030c7694d6c4fb332c5322539c6429d3873707ccd43fc7320fa6fa544d0a46",
        "budget_filtered_D_mw_amplitude.csv":
            "5e7d61c27c5e5e7f1dec464683d5b098d1fcb76c5790ceef23448fb6581f7d3e",
        "budget_filtered_D_mw_frequency.csv":
            "f73f692fd2c12ee13bcc99b836d36fc35ba6b8b5e7a0f0bea1a460210ca0a6bb",
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
            "b9f46b37641dbf4cb29b03e9c6f48912d1bd00059e1e4dd8c625abf3bc5b09d5",
        "allan_B.csv":
            "575fa32f13e0e81fa6fb1011ee2ad00136972220cfa6735df362c12ab970ec5b",
        "allan_C.csv":
            "5dc6f8d7f81efd13f1c6b8275be9e096b3266ca7505915207e6c6020b789076d",
        "allan_D.csv":
            "92571416e01b7d0d3eb5c5c848b778056a962ee5fbd9bafc93223574ea618b36",
        "series_A.csv":
            "d69584c0b1cd93d5e0df224ac43a79c9fc73c844871240ccb7cd834b44b9c7e9",
        "series_B.csv":
            "5038ffbb798f90c6abac21dd690757365e138708bbebb39c4b537b491dbac120",
        "series_C.csv":
            "ae28ae84879b7bdc309b3148b2135a7160a10990126d60ce301d0807837d0622",
        "series_D.csv":
            "a81000e7807d208788610caad47a598dee5e8a0670876cf6e1b918beafc82bd2",
        "std_A.csv":
            "55d2a666c32b824559c39442f252557916c478302899426a86c8bf0d9e83217e",
        "std_B.csv":
            "bb68f708d4794fe8d73e9e88c7a6b0494cbd0a4c56b669d481e3d4fd51509c39",
        "std_C.csv":
            "d6acd7bb61274606577369a50726b4acfc683d38291f41dc797199ed2611be04",
        "std_D.csv":
            "f4b402f45778021071da8a32d2e725f416afcd76374c61f90e20138e10891e83",
    },
    "sweep": {
        "sweep.csv":
            "1eff5c7d77ea5836ba52899ef085df2a8fc4b510c423296e313693d5303ae097",
        "sweep_response.csv":
            "2479f31f7243796fe7e1f377b355aebb643f3705bd21dc467d190d5a7d1d743d",
    },
}


def table_digests(command, tmp_path):
    overrides, extra = RUNS[command]
    mapping = yaml.safe_load(SCENARIO_FILE.read_text())
    mapping.update(overrides)
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
@pytest.mark.parametrize("command", sorted(RUNS))
def test_tables_match_recorded_digests(command, tmp_path):
    assert table_digests(command, tmp_path) == DIGESTS[command]
