import errno
import os
from pathlib import Path

import numpy as np
import pytest

from nvmag import HamiltonianParams, ReadoutConfig
from nvmag.scenario import load_scenario
from reference_spin import FullParams

SCENARIO_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.yaml"


def count_forks(monkeypatch, fail=None):
    """The list that gains one entry per fork from here on (every helper
    process is forked by ``nvmag.io._Helper``); the ``fail``-th fork,
    counting from 1, raises ``EAGAIN`` instead of forking."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        if len(forks) == fail:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """This process's open descriptors; skips where ``/proc`` lists none."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    return sorted(os.listdir("/proc/self/fd"))


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
