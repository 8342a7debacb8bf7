"""Closed-form sensitivity limits of pulsed ensemble magnetometry.

Walks through the two analytic bounds implemented in nvmag.analysis: the
resolution of pulsed detection given a measured per-evaluation deviation,
and the spin-projection limit of an N-spin ensemble with coherence decay,
including the optimal choice of phase-accumulation time.
"""

import numpy as np

from nvmag.analysis import (sensitivity_eq1, projection_limit_eq2,
                            projection_limit_simplified, optimal_phase_time)
from nvmag.sequences import CoherenceDecay

# operating point: 50 us of phase accumulation inside a 160 us evaluation,
# 1.4e11 centres, coherence time 100 us (so the echo decay factor is
# exp(-1/2)), one second of total measurement time
PHASE_TIME, SEQUENCE_TIME, TOTAL_TIME = 50e-6, 160e-6, 1.0
N_CENTRES, GAMMA_E = 1.4e11, 28.7e9
evaluations = TOTAL_TIME / SEQUENCE_TIME
envelope = CoherenceDecay(t2=100e-6).envelope(PHASE_TIME)

# per-evaluation deviation 0.01 (dimensionless), signal amplitude 0.04
b_min = sensitivity_eq1(0.01, 0.04, PHASE_TIME, evaluations, GAMMA_E)
print("pulsed-detection resolution with sigma1 = 0.01, amplitude 0.04:")
print(f"  B_min(1 s) = {b_min:.3e} T")
print(f"  ({evaluations:.0f} evaluations per second)")
print()

b_qpn = projection_limit_eq2(N_CENTRES, evaluations, PHASE_TIME, envelope,
                             GAMMA_E)
print("spin projection limit of the same configuration:")
print(f"  B_QPN = {b_qpn:.3e} T/sqrt(Hz)  =  {b_qpn * 1e15:.2f} fT/sqrt(Hz)")
print()

# in the back-to-back limit (sequence time -> phase time) with exponential
# decay, the optimum phase time is exactly half the coherence time and the
# bound collapses to sqrt(2e) / (gamma sqrt(N t T2))
t2 = 2e-3  # coherence time reachable with decoupling sequences
t_opt = optimal_phase_time(t2)
print(f"optimal phase time for T2 = {t2 * 1e3:.0f} ms: {t_opt * 1e3:.1f} ms")

coeff = projection_limit_simplified(1.0, 1.0, 1.0)
print(f"optimal-time coefficient sqrt(2e)/gamma = {coeff:.3e} T*sqrt(s)")
print("so B_QPN = coeff / sqrt(N * t * T2):")
for n in (1.0, 1e6, 1.4e11):
    b = projection_limit_simplified(n, 1.0, t2)
    print(f"  N = {n:8.1e}:  {b:.3e} T/sqrt(Hz)")

# the two expressions agree exactly at the optimum
# (back-to-back sequences, so one second holds 1 / t_opt evaluations)
check = projection_limit_eq2(N_CENTRES, 1.0 / t_opt, t_opt,
                             CoherenceDecay(t2=t2).envelope(t_opt), GAMMA_E)
assert np.isclose(check, projection_limit_simplified(N_CENTRES, 1.0, t2),
                  rtol=1e-12)
print("\nconsistency of the general and optimal-time forms: ok")
