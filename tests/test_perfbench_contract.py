"""The benchmark tracer still finds every layer it wraps.

``perfbench/layers.py`` replaces module attributes of ``nvmag`` by name,
so renaming or deleting one of them makes the traced benchmark fail with
an ``AttributeError`` before it times anything.  This runs the tracer's
installation and restore, which takes milliseconds.
"""

import importlib.util
from pathlib import Path

from nvmag import (analysis, cli, experiments, filters, io, noise, readout,
                   scenario, sequences, spin)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
MODULES = (analysis, cli, experiments, filters, io, noise, readout, scenario,
           sequences, spin)


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_layers_and_restore_puts_originals_back():
    layers = load_layers()
    before = [dict(vars(module)) for module in MODULES]
    restore = layers.install(layers.Tracer())
    try:
        wrapped = [f"{module.__name__}.{name}"
                   for module, snapshot in zip(MODULES, before)
                   for name, value in snapshot.items()
                   if getattr(module, name) is not value]
    finally:
        restore()
    assert "nvmag.filters.filtered_cumulative_noise_descending" in wrapped
    for module, snapshot in zip(MODULES, before):
        assert vars(module).keys() == snapshot.keys(), module.__name__
        for name, value in snapshot.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name}"
