"""NV ground-state spin model: the two-level echo propagator.

The Monte Carlo evaluates the ``m_S = 0, -1`` pair of each 14N hyperfine
block (``m_I`` in :data:`NUCLEAR_LEVELS`) in the frame of a drive carrier
locked to the ``m_I = 0`` line.  In that frame the zero-field splitting,
the nuclear Zeeman term and a static bias field cancel, so only
``gamma_e`` and the hyperfine coupling reach any output.  The
9-dimensional model that shows this is the reference in
``tests/reference_spin.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

NUCLEAR_LEVELS = (1, 0, -1)


@dataclass(frozen=True)
class HamiltonianParams:
    """Electron gyromagnetic ratio (Hz/T) and hyperfine coupling (Hz)."""

    gamma_e: float = 28.7e9               # Hz/T
    hyperfine: float = 2.16e6             # Hz

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.gamma_e, self.hyperfine)):
            raise ValueError("Hamiltonian parameters must be finite")
        if self.hyperfine <= 0 or self.gamma_e <= 0:
            raise ValueError("hyperfine coupling and gamma_e must be positive")


def su2_apply(b_x, b_y, b_z, duration, amp_g, amp_e):
    """Apply ``exp(-i t (b_x sx + b_y sy + b_z sz))`` to batched 2-level states.

    Coefficients are in rad/s (they are half the angular Rabi/detuning
    rates); any of them may be scalars or arrays broadcastable against the
    state amplitudes.  Basis order is (``m_S = 0``, ``m_S = -1``) with
    ``sz = diag(+1, -1)``.  Returns the new ``(amp_g, amp_e)``.
    """
    b_x = np.asarray(b_x, dtype=float)
    b_y = np.asarray(b_y, dtype=float)
    b_z = np.asarray(b_z, dtype=float)
    norm = np.sqrt(b_x**2 + b_y**2 + b_z**2)
    theta = norm * duration
    cos_t = np.cos(theta)
    # sin(theta)/|b| -> duration as |b| -> 0
    safe = np.where(norm > 0.0, norm, 1.0)
    k = np.where(norm > 0.0, np.sin(theta) / safe, duration)
    u00 = cos_t - 1j * k * b_z
    u01 = -1j * k * (b_x - 1j * b_y)
    u10 = -1j * k * (b_x + 1j * b_y)
    u11 = cos_t + 1j * k * b_z
    return u00 * amp_g + u01 * amp_e, u10 * amp_g + u11 * amp_e
