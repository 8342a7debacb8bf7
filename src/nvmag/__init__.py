"""Pulsed NV-ensemble magnetometry simulator.

Library layout:

* :mod:`nvmag.spin` -- the two-level echo propagator
* :mod:`nvmag.sequences` -- echo sequences, AC response, pulse errors
* :mod:`nvmag.noise` -- parametric PSDs, correlated-trace synthesis,
  Welch estimation, downward cumulative noise
* :mod:`nvmag.filters` -- integration-window filter functions
* :mod:`nvmag.readout` -- window-level photon readout and scheme signals
* :mod:`nvmag.analysis` -- Allan/std scaling and sensitivity limits
* :mod:`nvmag.scenario`, :mod:`nvmag.experiments`, :mod:`nvmag.cli` --
  seeded scenario runs
"""

# set before the submodule imports: the run manifest records it
__version__ = "0.1.0"

from .spin import HamiltonianParams
from .sequences import (SequenceElement, PulseSequence, AcField,
                        CoherenceDecay, hahn_echo, field_evaluation,
                        locked_field, analytic_echo_phase,
                        population_from_phase, echo_populations,
                        pulse_error_response)
from .noise import (PsdModel, TabulatedPsd, NoiseTrace, synthesize_trace,
                    estimate_psd, cumulative_rss_descending)
from .filters import (IntegrationWindow, window_for_signal,
                      filter_transmission_numeric,
                      filter_transmission_analytic_b,
                      filter_scheme_for_channel,
                      filtered_cumulative_noise_descending)
from .readout import ReadoutConfig, ReadoutSeries, sequence_signals
from .analysis import (ScalingCurve, SensitivityInputs, allan_deviation,
                       std_vs_time, sensitivity_eq1, projection_limit_eq2,
                       projection_limit_simplified, optimal_phase_time,
                       fit_log_slope)
from .scenario import (Scenario, SequenceSettings, ConfigError, RunManifest,
                       load_scenario, save_scenario, scenario_from_mapping,
                       scenario_to_mapping, scenario_hash)
from .experiments import (run_ac_sweep, run_scaling_experiment,
                          run_error_scaling, run_noise_budget)
