"""Sensor response to a phase-locked AC test field.

The echo accumulates phase proportional to the field amplitude when the
field's period equals the free-evolution time and its zero crossing sits
on the refocusing pulse.  Sweeping the amplitude traces out a sinusoidal
mean signal whose fitted modulation amplitude is the response entering
the closed-form sensitivity; the sweep is how that amplitude is measured
in practice.
"""

import dataclasses

import numpy as np

from nvmag.experiments import run_ac_sweep
from nvmag.scenario import load_scenario
from nvmag.sequences import analytic_echo_phase

scenario = dataclasses.replace(load_scenario("scenarios/baseline.yaml"),
                               n_sequences=4000)

gamma = scenario.hamiltonian.gamma_e
phase_time = scenario.sequence.phase_time
# amplitudes spanning echo phases up to ~pi
amplitudes = np.linspace(0.0, np.pi / (4 * gamma * phase_time), 13)

result = run_ac_sweep(scenario, amplitudes, out_dir="demos/out/sweep")

print("field amplitude -> echo phase -> mean signal per scheme")
print(f"{'B_ac_T':>12} {'phase_rad':>10} "
      + " ".join(f"{('S_' + s):>12}" for s in scenario.schemes))
for k, amp in enumerate(amplitudes):
    phi = analytic_echo_phase(amp, phase_time, gamma)
    row = " ".join(f"{result.means[s][k]:12.4e}" for s in scenario.schemes)
    print(f"{amp:12.3e} {phi:10.3f} {row}")

print("\nfitted modulation amplitudes:")
for scheme, amp in result.response_amplitude.items():
    print(f"  scheme {scheme}: {amp:.4e}")
print("(scheme D doubles the response because the second sequence is "
      "measured at the mirrored working point)")
print("\ntables written to demos/out/sweep/")
