"""Recovery of 1/sqrt(t) averaging by sequence-level referencing.

With slow microwave-amplitude wander switched on, the per-sequence signal
error stops averaging down: block means of the unreferenced scheme-B
series hit a plateau set by the wander, and longer measurements stop
helping.  Scheme D measures every second sequence at the mirrored working
point and subtracts; the hyperfine-ensemble response to a common
amplitude error is identical at both working points, so the wander
cancels while the field response adds.  Its deviation keeps falling as
1/sqrt(t) down to the shot-noise floor.

Runs 400k sequences (a few seconds); tables land in demos/out/scaling/.
"""

import numpy as np

from nvmag import analysis
from nvmag.experiments import run_scaling_experiment
from nvmag.scenario import scenario_from_mapping


def log_slope(curve, t_min, t_max):
    """Slope of the least-squares power law through the curve's points
    with ``t_min <= t <= t_max``."""
    keep = (curve.times >= t_min) & (curve.times <= t_max)
    return np.polyfit(np.log10(curve.times[keep]),
                      np.log10(curve.values[keep]), 1)[0]


scenario = scenario_from_mapping({
    "name": "scaling-recovery-demo",
    "master_seed": 20240,
    "n_sequences": 400_000,
    "schemes": ["B", "D"],
    "sequence": {"phase_time_s": 50e-6, "sequence_time_s": 160e-6,
                 "rabi_Hz": 5e6},
    "decay": {"t2_s": 100e-6},
    "readout": {"photon_rate_cps": 9.277e+18},
    "noise": {"mw_amplitude": {"flicker": [[6.8e-9, 1.0]],
                               "f_min_Hz": 1e-3, "f_max_Hz": 6250.0}},
})

result = run_scaling_experiment(scenario, out_dir="demos/out/scaling")

print("deviation of block means versus averaging time (field units):\n")
print(f"{'t_s':>10} {'scheme B (T)':>14} {'scheme D (T)':>14}")
curves = {}
for scheme in ("B", "D"):
    sc = result.schemes[scheme]
    grid = analysis.default_time_grid(sc.series.values.size,
                                      sc.series.spacing, min_blocks=16)
    std = analysis.std_vs_time(sc.series.values, sc.series.spacing, grid)
    curves[scheme] = (std, std.values / sc.response_per_tesla)

grid_b = curves["B"][0].times
for t_probe in (3.2e-4, 3.2e-3, 3.2e-2, 0.32, 3.2):
    kb = np.argmin(np.abs(curves["B"][0].times - t_probe))
    kd = np.argmin(np.abs(curves["D"][0].times - t_probe))
    print(f"{t_probe:10.2g} {curves['B'][1][kb]:14.3e} "
          f"{curves['D'][1][kd]:14.3e}")

std_b, field_b = curves["B"]
std_d, field_d = curves["D"]


slope_b = log_slope(std_b, std_b.times[-1] / 10, std_b.times[-1])
slope_d = log_slope(std_d, std_d.times[0], std_d.times[0] * 100)
print(f"\nscheme B long-time slope: {slope_b:+.3f}  (plateau: no gain from "
      f"averaging)")
print(f"scheme D two-decade slope: {slope_d:+.3f}  (central-limit scaling)")
plateau = field_b[std_b.times >= std_b.times[-1] / 10].mean()
print(f"plateau level {plateau:.2e} T vs referenced floor "
      f"{field_d[-1]:.2e} T: {plateau / field_d[-1]:.0f}x lower")
print("\ntables written to demos/out/scaling/")
