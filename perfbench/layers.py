"""Spans and counters around calls into nvmag's layers.

Nothing inside the package is changed: :func:`install` replaces the module
attributes through which ``nvmag.experiments``, ``nvmag.cli`` and the
layers call each other (``sequences.echo_populations``,
``spin.su2_apply``, ``io.write_table``, ...) by wrappers that record a
span per call and count the work the call did, and returns a function
that puts the originals back.  Runs are single-threaded, so spans nest
on one stack.

A layer's self time is its span time minus the time its child spans
cover.  Byte counts are labelled: ``bytes_computed`` is derived from
array sizes, ``bytes`` (of ``io.write_table``) is the measured size of the
file written.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

#: the span around one in-process pass; the coverage check measures how
#: much of it the leaf layers' self time accounts for
PASS_SPAN = "pass"
RUNNER_PREFIX = "experiments."
CLI_PREFIX = "cli."


class Tracer:
    """In-memory spans ``(name, start, end, parent)`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, counters) -> dict:
    """Per-layer totals: ``<name>.s`` (span time), ``<name>.self_s``,
    ``<name>.calls``, the counters, and the derived ratios."""
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
    out.update(counters)
    out["experiments.self_s"] = sum(
        v for k, v in list(out.items())
        if k.startswith(RUNNER_PREFIX) and k.endswith(".self_s"))
    returned = out.get("readout.signals_returned", 0.0)
    out["readout.kept_signal_ratio"] = (
        out.get("readout.signals_kept", 0.0) / returned if returned else 0.0)
    return dict(out)


def layer_coverage(spans) -> float:
    """Share of the pass spans covered by the self time of leaf layers,
    i.e. of every span except the pass itself, the runners and commands."""
    total = sum(end - start for name, start, end, _ in spans
                if name == PASS_SPAN)
    leaf = sum(own for (name, *_), own in zip(spans, self_times(spans))
               if name != PASS_SPAN and not name.startswith(RUNNER_PREFIX)
               and not name.startswith(CLI_PREFIX))
    return leaf / total if total > 0 else 0.0


def clipped_rate_warnings(caught) -> int:
    """Warnings, of those recorded, that report a clipped photon rate."""
    return sum(issubclass(w.category, RuntimeWarning)
               and "clipping" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# counters, computed from each call's arguments and result
# ---------------------------------------------------------------------------

def _count_su2(tracer, args, kwargs, result):
    tracer.count("spin.su2_apply.elements", np.asarray(result[0]).size)


def _count_echo(tracer, args, kwargs, result):
    tracer.count("sequences.echo_populations.evals", np.asarray(result).size)


def _count_trace(tracer, args, kwargs, result):
    n = result.samples.size
    tracer.count("noise.synthesize_trace.samples", n)
    # float64 white noise, frequency grid, scale and output (real buffers)
    # plus the complex128 spectrum and shaped spectrum of n // 2 + 1 bins
    bins = n // 2 + 1
    tracer.count("noise.synthesize_trace.bytes_computed",
                 8 * (2 * n + 2 * bins) + 16 * 2 * bins)


def _count_signals(tracer, args, kwargs, result):
    n = np.asarray(result[0]).size
    tracer.count("readout.sequence_signals.sequences", n)
    tracer.count("readout.signals_returned", 2 * n)


def _count_poisson(tracer, args, kwargs, result):
    from nvmag.readout import GAUSSIAN_COUNT_THRESHOLD

    mean = np.asarray(args[1] if len(args) > 1 else kwargs["mean"])
    exact = int(np.count_nonzero(mean < GAUSSIAN_COUNT_THRESHOLD))
    tracer.count("readout.poisson_counts.exact_draws", exact)
    tracer.count("readout.poisson_counts.gaussian_draws", mean.size - exact)


def _count_series(tracer, args, kwargs, result):
    from nvmag.readout import SCHEME_SEQUENCES

    tracer.count("readout.signals_kept",
                 result.values.size * SCHEME_SEQUENCES[result.scheme])


def _count_table(tracer, args, kwargs, result):
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    tracer.count("io.write_table.rows", len(np.asarray(columns[0])))
    tracer.count("io.write_table.bytes", os.path.getsize(result))


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _wrap(tracer, module, attr, name, counter=None):
    """Replace ``module.attr`` by a wrapper recording a span ``name`` (none
    when ``name`` is None) and calling ``counter`` on the result."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        if name is None:
            result = original(*args, **kwargs)
        else:
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    setattr(module, attr, wrapper)
    return module, attr, original


def install(tracer: Tracer):
    """Wrap the layer entry points of an imported ``nvmag``; returns a
    function restoring the originals."""
    from nvmag import (analysis, cli, experiments, filters, io, noise,
                       readout, scenario, sequences, spin)

    targets = [
        (spin, "su2_apply", "spin.su2_apply", _count_su2),
        (sequences, "echo_populations", "sequences.echo_populations",
         _count_echo),
        (noise, "synthesize_trace", "noise.synthesize_trace", _count_trace),
        (readout, "sequence_signals", "readout.sequence_signals",
         _count_signals),
        (readout, "poisson_counts", "readout.poisson_counts",
         _count_poisson),
        (analysis, "allan_deviation", "analysis.allan_deviation", None),
        (analysis, "std_vs_time", "analysis.std_vs_time", None),
        (filters, "filtered_cumulative_noise_descending",
         "filters.filtered_cumulative_noise_descending", None),
        (io, "write_table", "io.write_table", _count_table),
        (io, "file_digest", "io.file_digest", None),
        (scenario, "load_scenario", "scenario.load_scenario", None),
        (cli, "load_scenario", "scenario.load_scenario", None),
    ]
    for runner in ("run_ac_sweep", "run_scaling_experiment",
                   "run_error_scaling", "run_noise_budget"):
        targets.append((experiments, runner, f"experiments.{runner}", None))
    saved = [_wrap(tracer, *t) for t in targets]
    # counted, not timed: the series a runner keeps from the sampled signals
    saved.append(_wrap(tracer, experiments, "ReadoutSeries", None,
                       _count_series))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore
