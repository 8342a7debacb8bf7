"""NV ground-state spin model: the two-level echo propagator.

The Monte Carlo evaluates the ``m_S = 0, -1`` pair of each 14N hyperfine
block (``m_I`` in :data:`NUCLEAR_LEVELS`) in the frame of a drive carrier
locked to the ``m_I = 0`` line.  In that frame the zero-field splitting,
the nuclear Zeeman term and a static bias field cancel, so only
``gamma_e`` and the hyperfine coupling reach any output.  The
9-dimensional model that shows this is the reference in
``tests/reference_spin.py``.

Every pulse of the echo is one SU(2) rotation ``cos(theta) - i k (b.sigma)``
with ``k = sin(theta)/|b|``.  :func:`su2_apply` applies such a rotation
from its cosine and ``k``, which the caller computes, so one set of
trigonometry can serve several pulses (the echo's pi pulse is the double
angle of its pi/2 pulses).  The exponential ``exp(-i t b.sigma)`` from the
coupling and a duration is the reference in ``tests/reference_spin.py``.
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


def su2_apply(cos_t, k, b_x, b_y, b_z, amp_g, amp_e):
    """Apply the rotation ``cos_t - i k (b_x sx + b_y sy + b_z sz)`` to
    batched 2-level states.

    For ``exp(-i t b.sigma)`` the caller passes ``cos_t = cos(|b| t)`` and
    ``k = sin(|b| t)/|b|`` (``t`` where ``|b| = 0``); the coupling is in
    rad/s (half the angular Rabi/detuning rates).  Every argument may be a
    scalar or an array broadcastable against the others.  Basis order is
    (``m_S = 0``, ``m_S = -1``) with ``sz = diag(+1, -1)``.  Returns the
    new ``(amp_g, amp_e)``.
    """
    # the rotation is [[a, b], [-conj(b), conj(a)]]
    a = cos_t - 1j * (k * b_z)
    b = (-k) * (b_y + 1j * b_x)
    return a * amp_g + b * amp_e, np.conj(a) * amp_e - np.conj(b) * amp_g
