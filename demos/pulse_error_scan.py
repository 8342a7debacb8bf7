"""Spin-state population error versus microwave drive errors.

For noise correlation times longer than one sequence, a drive error is
constant within an echo and its effect is captured by propagating the
sequence with a fixed relative amplitude error or carrier frequency
offset.  Both scans are linear in the small-error regime, which is what
lets spectral noise budgets be converted into signal units via a single
slope per channel.  The linearity of the amplitude scan relies on the
hyperfine ensemble average: the detuned nuclear blocks turn the pulse
imperfections into a first-order population shift at the working point.
"""

import numpy as np

from nvmag.io import write_table
from nvmag.sequences import pulse_error_response
from nvmag.spin import HamiltonianParams

params = HamiltonianParams()
PHASE_TIME, RABI = 50e-6, 5e6

amplitude_errors = np.logspace(-4, -1, 25)
frequency_errors = np.logspace(1, 5, 25)

dz_g = pulse_error_response(amplitude_errors, [0.0], phase_time=PHASE_TIME,
                            rabi=RABI, params=params)[:, 0]
dz_f = pulse_error_response([0.0], frequency_errors, phase_time=PHASE_TIME,
                            rabi=RABI, params=params)[0, :]

print("relative amplitude error -> population error")
for x, z in zip(amplitude_errors[::4], dz_g[::4]):
    print(f"  dg = {x:8.1e}   dz = {z:.3e}")
print("carrier frequency error -> population error")
for x, z in zip(frequency_errors[::4], dz_f[::4]):
    print(f"  df = {x:8.1e} Hz   dz = {z:.3e}")

def log_slope(x, y, lo, hi):
    m = (x >= lo) & (x <= hi)
    return np.polyfit(np.log10(x[m]), np.log10(y[m]), 1)[0]

print(f"\nlog-log slope of the amplitude scan (1e-4..1e-3): "
      f"{log_slope(amplitude_errors, dz_g, 1e-4, 1e-3):.3f}")
print(f"log-log slope of the frequency scan (10..100 Hz):  "
      f"{log_slope(frequency_errors, dz_f, 1e1, 1e2):.3f}")
print("(both are 1: linear response in the small-error decade)")

# single-block comparison: without the ensemble average the amplitude
# response at the working point is quadratic, not linear
dz_g0 = pulse_error_response(amplitude_errors, [0.0], phase_time=PHASE_TIME,
                             rabi=RABI, params=params, m_i_values=(0,))[:, 0]
print(f"resonant-block-only amplitude slope:               "
      f"{log_slope(amplitude_errors, dz_g0, 1e-4, 1e-3):.3f}")

write_table("demos/out/error_scaling_amplitude.csv", ["delta_g", "delta_z"],
            [amplitude_errors, dz_g])
write_table("demos/out/error_scaling_frequency.csv", ["delta_f_Hz", "delta_z"],
            [frequency_errors, dz_f])
print("\ntables written to demos/out/")
