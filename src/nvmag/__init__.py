"""Pulsed NV-ensemble magnetometry simulator.

Library layout:

* :mod:`nvmag.spin` -- the two-level echo propagator
* :mod:`nvmag.sequences` -- the spin echo, AC response, pulse errors
* :mod:`nvmag.noise` -- parametric and tabulated PSDs and the spectrum
  file reader, correlated-trace synthesis, downward cumulative noise
* :mod:`nvmag.filters` -- closed-form filter functions of the readout
  schemes
* :mod:`nvmag.readout` -- window-level photon readout and scheme signals
* :mod:`nvmag.analysis` -- Allan/std scaling and sensitivity limits
* :mod:`nvmag.scenario`, :mod:`nvmag.experiments`, :mod:`nvmag.cli` --
  seeded scenario runs
"""

# set before the submodule imports: the run record holds it
__version__ = "0.1.0"

from .spin import HamiltonianParams
from .sequences import (CoherenceDecay, analytic_echo_phase, pi_pulse_time,
                        echo_populations, pulse_error_response)
from .noise import (PsdModel, TabulatedPsd, NoiseTrace, synthesize_trace,
                    cumulative_rss_descending)
from .filters import (check_windows, filter_transmission,
                      filter_scheme_for_channel,
                      filtered_cumulative_noise_descending)
from .readout import ReadoutConfig, ReadoutSeries, sequence_signals
from .analysis import (ScalingCurve, allan_deviation, std_vs_time,
                       projection_limit_eq2, projection_limit_simplified,
                       optimal_phase_time)
from .scenario import (Scenario, SequenceSettings, ConfigError, write_run,
                       load_scenario, scenario_from_mapping, scenario_hash)
from .experiments import (run_ac_sweep, run_scaling_experiment,
                          run_error_scaling, run_noise_budget,
                          shot_noise_limit)
