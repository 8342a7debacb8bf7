from pathlib import Path

import numpy as np
import pytest

from nvmag import HamiltonianParams, ReadoutConfig
from nvmag.scenario import load_scenario
from reference_spin import FullParams

SCENARIO_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.yaml"


@pytest.fixture
def params():
    return HamiltonianParams()


@pytest.fixture
def full_params():
    """The reference model's complete parameters at the 4.6 mT bias."""
    return FullParams(static_field=4.6e-3)


@pytest.fixture
def readout_cfg():
    return ReadoutConfig(photon_rate=9.277e18)


@pytest.fixture
def baseline_scenario():
    return load_scenario(SCENARIO_FILE)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
