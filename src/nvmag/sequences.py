"""The measurement sequence: spin-echo AC magnetometry and pulse errors.

Every field evaluation is the phase-locked spin echo
``(pi/2)_x - T/2 - (pi)_x - T/2 - (pi/2)_phi``, fixed by the phase time
``T``, the Rabi frequency and the final phase ``phi``.  Its ``m_S = 0``
population responds to an in-phase AC field of period ``T``.
:func:`echo_populations` propagates its five stages through the
two-level model of :mod:`nvmag.spin`, vectorized over independent
evaluations.

The only test field is that phase-locked sine
``B(t) = amplitude * sin(2 pi t / T)``, given by its amplitude alone.
It acts only while the spin evolves freely (the pulses are hundreds of
times shorter than the free evolutions and the field accumulated during
them is neglected), and its time coordinate is the accumulated
free-evolution time, so the sine's zero crossing falls on the refocusing
pulse regardless of pulse durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spin
from .spin import TWO_PI, HamiltonianParams

NUCLEAR_LEVELS = spin.NUCLEAR_LEVELS


@dataclass(frozen=True)
class CoherenceDecay:
    """Echo contrast envelope ``exp(-(T/t2)**exponent)``; the default
    ``t2 = inf`` is no decay (envelope 1)."""

    t2: float = math.inf
    exponent: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.exponent):
            raise ValueError("decay exponent must be finite")
        if not (self.t2 > 0 and self.exponent > 0):
            raise ValueError("coherence time and exponent must be positive")

    def envelope(self, phase_time: float) -> float:
        return math.exp(-((phase_time / self.t2) ** self.exponent))


def analytic_echo_phase(b_ac: float, phase_time: float, gamma_e: float) -> float:
    """Closed-form echo phase for the phase-locked in-phase sine.

    The echo weight flips sign at the refocusing pulse, so a sine of
    period ``phase_time`` with its zero crossing there contributes
    ``(2/pi) * (2 pi gamma_e) * B * phase_time`` of accumulated phase.
    """
    return 4.0 * gamma_e * b_ac * phase_time


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def pi_pulse_time(phase_time: float, rabi: float) -> float:
    """Duration ``1/(2 rabi)`` of the refocusing pi pulse; each pi/2 pulse
    takes half of it.  Raises ``ValueError`` when the pi pulse is longer
    than half the free evolution."""
    if phase_time <= 0 or rabi <= 0:
        raise ValueError("phase_time and rabi must be positive")
    t_pi = 1.0 / (2.0 * rabi)
    if t_pi > phase_time / 2:
        raise ValueError("pulse durations exceed half the free evolution; "
                         "increase the Rabi frequency or the phase time")
    return t_pi


def _pulse(rotation: float, duration: float, phase, dg, b_z, g, e):
    """A drive pulse of nominal angle ``rotation`` about the axis at
    ``phase``, with relative amplitude error ``dg``."""
    omega = rotation / (TWO_PI * duration) * (1.0 + dg)
    b_x = math.pi * omega * np.cos(phase)
    b_y = math.pi * omega * np.sin(phase)
    return spin.su2_apply(b_x, b_y, b_z, duration, g, e)


def echo_populations(phase_time: float, rabi: float,
                     params: HamiltonianParams, amplitude_error=0.0,
                     frequency_error=0.0, field_amplitude=0.0,
                     decay: CoherenceDecay = CoherenceDecay(), *,
                     final_phase=math.pi / 2,
                     m_i_values=NUCLEAR_LEVELS) -> np.ndarray:
    """``m_S = 0`` populations after the echo
    ``(pi/2)_x - T/2 - (pi)_x - T/2 - (pi/2)_final_phase``.

    ``phase_time`` is the total free evolution ``T``; the pulses last
    :func:`pi_pulse_time` and half of it.  ``amplitude_error``,
    ``frequency_error`` (Hz) and ``final_phase`` may be scalars or
    equal-length arrays; each entry is one independent evaluation, with
    the errors held constant within it.  ``field_amplitude`` (T) is the
    amplitude of the phase-locked test field.  Populations are averaged
    over the hyperfine blocks in ``m_i_values`` (the drive is referenced
    to the ``m_I = 0`` line), and ``decay`` scales their contrast.
    """
    t_pi = pi_pulse_time(phase_time, rabi)
    half = phase_time / 2.0
    dg = np.atleast_1d(np.asarray(amplitude_error, dtype=float))
    df = np.atleast_1d(np.asarray(frequency_error, dtype=float))
    fp = np.asarray(final_phase, dtype=float)
    if fp.ndim:
        dg, df, fp = np.broadcast_arrays(dg, df, fp)
    else:
        dg, df = np.broadcast_arrays(dg, df)
    n = dg.shape[0]

    # field phase of each free evolution, from the exact integral
    # A/w [cos(w t0) - cos(w (t0 + T/2))] of the locked sine; the free
    # evolutions are diagonal, with excited-level energy
    # -2*pi*delta - gamma_rad * B(t)
    w = TWO_PI * (1.0 / phase_time)
    field_phase = [TWO_PI * params.gamma_e * (field_amplitude / w * (
        math.cos(w * t0) - math.cos(w * (t0 + half)))) for t0 in (0.0, half)]
    p_total = np.zeros(n)
    for m_i in m_i_values:
        delta = df + params.hyperfine * m_i  # Hz, per evaluation
        b_z = math.pi * delta
        detuning_phase = TWO_PI * delta * half
        g, e = _pulse(math.pi / 2, t_pi / 2, 0.0, dg, b_z,
                      np.ones(n, dtype=complex), np.zeros(n, dtype=complex))
        e = e * np.exp(1j * (detuning_phase + field_phase[0]))
        g, e = _pulse(math.pi, t_pi, 0.0, dg, b_z, g, e)
        e = e * np.exp(1j * (detuning_phase + field_phase[1]))
        g, _ = _pulse(math.pi / 2, t_pi / 2, fp, dg, b_z, g, e)
        p_total += np.abs(g) ** 2
    p = p_total / len(m_i_values)
    return 0.5 + (p - 0.5) * decay.envelope(phase_time)


def pulse_error_response(amplitude_errors, frequency_errors, *,
                         phase_time: float, rabi: float,
                         params: HamiltonianParams | None = None,
                         final_phase: float = math.pi / 2,
                         m_i_values=NUCLEAR_LEVELS) -> np.ndarray:
    """Population errors ``|p(dg, df) - p(0, 0)|`` at zero field and the
    equal-population working point.

    The relative amplitude errors and carrier frequency errors (Hz)
    broadcast against each other; each pair is one evaluation.
    """
    if params is None:
        params = HamiltonianParams()
    dg = np.asarray(amplitude_errors, dtype=float)
    df = np.asarray(frequency_errors, dtype=float)
    if not (np.all(np.isfinite(dg)) and np.all(np.isfinite(df))):
        raise ValueError("drive errors must be finite")
    kwargs = dict(final_phase=final_phase, m_i_values=m_i_values)
    p = echo_populations(phase_time, rabi, params, dg, df, **kwargs)
    p0 = echo_populations(phase_time, rabi, params, 0.0, 0.0, **kwargs)[0]
    return np.abs(p - p0)
