"""Intrinsic noise filters of the four readout schemes.

A pulsed measurement integrates the detector over discrete windows, so it
owns a transfer function for slow noise: the magnitude of the Fourier
transform of its signal integration window.  Every scheme starts from
the window at the start of the laser pulse, 2|sin(w dt / 2)| / w.
Referencing it against the end of the pulse (schemes B/D) multiplies by
2|sin(w (tL - dt) / 2)| and rejects DC; differencing two consecutive
sequences (schemes C/D) multiplies by another 2|sin(w T_seq / 2)|.
Microwave noise only enters through the state preparation, so within one
sequence it is never referenced: a scheme-D measurement filters optical
noise with window D but microwave noise with window C.
"""

import numpy as np

from nvmag.filters import filter_scheme_for_channel, filter_transmission
from nvmag.io import write_table
from nvmag.readout import REFERENCED_SCHEMES, SCHEME_SEQUENCES

T_L, D_T, T_SEQ = 100e-6, 10e-6, 160e-6

print("factors multiplying the start-window transmission 2|sin(w dt/2)|/w:")
for scheme in "ABCD":
    factors = []
    if scheme in REFERENCED_SCHEMES:
        factors.append(f"referenced 2|sin(w (tL - dt)/2)|, tL - dt = "
                       f"{(T_L - D_T) * 1e6:.0f}us")
    if SCHEME_SEQUENCES[scheme] == 2:
        factors.append(f"paired 2|sin(w T_seq/2)|, T_seq = {T_SEQ * 1e6:.0f}us")
    print(f"  {scheme}: {'; '.join(factors) or 'none'}")

freqs = np.logspace(0, np.log10(1 / T_SEQ), 500)
omega = 2 * np.pi * freqs
curves = {s: filter_transmission(s, omega, T_L, D_T, T_SEQ) / D_T
          for s in "ABCD"}

print("\nnormalized transmission at selected frequencies:")
print(f"{'f_Hz':>10} " + " ".join(f"{s:>9}" for s in "ABCD"))
for f_probe in (1.0, 10.0, 100.0, 1000.0, 6000.0):
    k = np.argmin(np.abs(freqs - f_probe))
    row = " ".join(f"{curves[s][k]:9.2e}" for s in "ABCD")
    print(f"{freqs[k]:10.1f} {row}")
print("(A passes DC; B suppresses it linearly; C/D add another factor "
      "of w*T_seq)")

print("\nfilter applied per (scheme, channel):")
for scheme in REFERENCED_SCHEMES:
    for channel in ("laser_intensity", "mw_amplitude"):
        print(f"  scheme {scheme}, {channel:16s} -> window "
              f"{filter_scheme_for_channel(scheme, channel)}")

write_table("demos/out/filter_transmission.csv",
            ["f_Hz"] + [f"x_hat_{s}" for s in "ABCD"],
            [freqs] + [curves[s] for s in "ABCD"])
print("\ntable written to demos/out/filter_transmission.csv")
