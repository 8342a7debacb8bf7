"""Derivation of the default photon rate in scenarios/baseline.yaml.

The absolute detected photon flux of an ensemble magnetometer is a free
instrument parameter.  The repository default anchors it to a concrete
sensitivity target: with the default timings, contrast and decay, the
shot-noise-limited scheme-B sensitivity should equal 0.17 pT/sqrt(Hz)
(0.9 pT/sqrt(Hz) divided by the factor 4-5 that the full referencing
chain adds on top of the bare fluorescence shot noise).

Inverting the closed-form resolution for the per-evaluation deviation and
equating it to the shot-noise prediction sqrt(2 / (R0 * window)) for the
two-window difference signal yields the photon rate R0.
"""

import math

from nvmag.analysis import sensitivity_eq1
from nvmag.readout import ReadoutConfig, window_dip_fraction

TARGET = 0.9e-12 / 5.3          # T/sqrt(Hz), shot-noise-limited scheme B
PHASE_TIME = 50e-6
SEQUENCE_TIME = 160e-6
T2 = 100e-6
CONTRAST = 0.04
GAMMA_E = 28.7e9

cfg = ReadoutConfig(photon_rate=1.0)  # placeholder rate; timings matter here
weight = window_dip_fraction(cfg, 0)
envelope = math.exp(-PHASE_TIME / T2)
amplitude = CONTRAST * weight * envelope / 2
print(f"first-window repolarization weight: {weight:.6f}")
print(f"signal modulation amplitude:        {amplitude:.6e}")

# per-evaluation deviation that reaches the target after one second
gamma_rad = 2 * math.pi * GAMMA_E
sigma1 = TARGET * gamma_rad * amplitude * PHASE_TIME / math.sqrt(SEQUENCE_TIME)
print(f"required per-evaluation deviation:  {sigma1:.6e}")

# shot noise of the two-window difference (no reference beam):
# sigma1 = sqrt(2 / (R0 * window))
r0 = 2.0 / (sigma1**2 * cfg.window_time)
print(f"calibrated photon rate:             {r0:.6e} counts/s")
print(f"scenario default (scenarios/baseline.yaml):      9.277e+18 counts/s")
assert abs(r0 - 9.277e18) / r0 < 1e-3

# round trip through the closed form
b_min = sensitivity_eq1(math.sqrt(2.0 / (r0 * cfg.window_time)), amplitude,
                        PHASE_TIME, 1.0 / SEQUENCE_TIME, GAMMA_E)
print(f"round trip:                         {b_min:.6e} "
      f"T (target {TARGET:.6e})")
