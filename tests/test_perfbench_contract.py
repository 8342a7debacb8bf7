"""The benchmark tracer still finds every layer it wraps, and a traced
scaling run still reports every layer the benchmark reads.

``perfbench/layers.py`` replaces module attributes of ``nvmag`` by name,
so renaming or deleting one of them makes the traced benchmark fail with
an ``AttributeError`` before it times anything, and a layer that is no
longer called through its module attribute makes the traced benchmark's
report fail with a ``KeyError``.  The first test runs the tracer's
installation and restore, which takes milliseconds; the second traces a
small scaling run the way the benchmark traces its passes.
"""

import importlib.util
import json
import warnings
from pathlib import Path

import yaml

from nvmag import (analysis, cli, experiments, filters, io, noise, readout,
                   scenario, sequences, spin)
from nvmag.scenario import CHUNK_SIZE

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"
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


def test_traced_scaling_run_reports_every_benchmark_layer(tmp_path):
    # schemes A-D with the baseline's laser and microwave noise, three
    # chunks: every layer of the scaling workload is entered
    mapping = yaml.safe_load((ROOT / "scenarios" / "baseline.yaml")
                             .read_text())
    mapping.update(schemes=["A", "B", "C", "D"],
                   n_sequences=2 * CHUNK_SIZE + 4096)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(mapping))
    out = tmp_path / "outputs"
    layers = load_layers()
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            index = tracer.begin(layers.PASS_SPAN)
            try:
                experiments.run_scaling_experiment(
                    scenario.load_scenario(path), out_dir=out)
            finally:
                tracer.end(index)
    finally:
        restore()
    tracer.count("readout.clipped_rate_warnings",
                 layers.clipped_rate_warnings(caught))
    summary = layers.summarize(tracer.spans, tracer.counters)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["per_layer"]
               if not m["name"].startswith("import.")
               and m["name"] not in summary]
    assert not missing
    tables = sorted(out.glob("*.csv"))
    assert len(tables) == 12  # series, Allan and std of each scheme
    # one header line per table
    assert summary["io.write_table.rows"] == sum(
        len(t.read_bytes().splitlines()) - 1 for t in tables)
    assert summary["io.write_table.bytes"] == sum(
        t.stat().st_size for t in tables)
