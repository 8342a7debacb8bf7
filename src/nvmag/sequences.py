"""The measurement sequence: spin-echo AC magnetometry and pulse errors.

Every field evaluation is the phase-locked spin echo
``(pi/2)_x - T/2 - (pi)_x - T/2 - (pi/2)_phi``, fixed by the phase time
``T``, the Rabi frequency and the final phase ``phi``.  Its ``m_S = 0``
population responds to an in-phase AC field of period ``T``.
:func:`echo_populations` evaluates it in the two-level model of
:mod:`nvmag.spin`, vectorized over independent evaluations.

The free evolutions need no propagation of their own.  A diagonal phase
``D(a) = diag(1, e^{ia})`` shifts the axis of a pulse it passes,
``D(a) P(phi) = P(phi + a) D(a)``, and leaves ``|0>`` unchanged, so the
echo ``P(phi) D(a2) P_pi(0) D(a1) P(0)`` on ``|0>`` is the three
rotations ``P(phi) P_pi(a2) P(a1 + a2)``, where ``a_k`` is the detuning
phase plus the field phase of half ``k``.  All three pulses share one
coupling, the pi pulse lasting twice as long, so per hyperfine block one
``sin``/``cos`` pair of the pi/2 angle gives every pulse (the pi pulse by
the double angle).  One pair of the carrier error's detuning phase gives
both ``a_k`` of every block, since a block's hyperfine offset and the
field phases only rotate it by constants, and the final phase's pair is
taken once per distinct phase.  Several final phases against the same
evaluations (the rows of a 2-D ``final_phase`` or ``phase_index``) share
everything up to the final pulse.

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


def echo_populations(phase_time: float, rabi: float,
                     params: HamiltonianParams, amplitude_error=0.0,
                     frequency_error=0.0, field_amplitude=0.0,
                     decay: CoherenceDecay = CoherenceDecay(), *,
                     final_phase=math.pi / 2, phase_index=None,
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

    A 2-D ``final_phase`` of shape ``(rows, n)`` runs every row against
    the same ``n`` evaluations and returns ``(rows, n)`` populations.
    Everything before the final pulse is computed once; the final pulse,
    the population and the envelope run per row on 1-D arrays, so each
    row equals, bit for bit, a call with that row as ``final_phase``.

    Given ``phase_index`` (integers, 1-D or 2-D like a per-evaluation
    ``final_phase``), ``final_phase`` is a table of phases and evaluation
    ``k`` of a row runs at ``final_phase[phase_index[k]]``: the cosine and
    sine of each table entry are taken once and gathered, with the bits
    of the per-evaluation form.
    """
    t_pi = pi_pulse_time(phase_time, rabi)
    half = phase_time / 2.0
    dg = np.atleast_1d(np.asarray(amplitude_error, dtype=float))
    df = np.atleast_1d(np.asarray(frequency_error, dtype=float))
    table = np.asarray(final_phase, dtype=float)
    if phase_index is None:
        # one table entry per evaluation, in order
        phase_index = np.arange(table.size).reshape(table.shape)
    table = table.ravel()
    index = np.asarray(phase_index)
    rows = index if index.ndim == 2 else [index]
    dg, df = np.broadcast_arrays(dg, df, rows[0])[:2]

    # field phase of each free evolution, from the exact integral
    # A/w [cos(w t0) - cos(w (t0 + T/2))] of the locked sine; the free
    # evolutions are diagonal, with excited-level energy
    # -2*pi*delta - gamma_rad * B(t)
    w = TWO_PI * (1.0 / phase_time)
    f1, f2 = (TWO_PI * params.gamma_e * (field_amplitude / w * (
        math.cos(w * t0) - math.cos(w * (t0 + half)))) for t0 in (0.0, half))
    # drive coupling (half the angular Rabi rate), the same for all three
    # pulses: the pi pulse lasts twice as long as the pi/2 pulses
    b_xy = math.pi * rabi * (1.0 + dg)
    b_xy2 = b_xy * b_xy
    # the final pulse's drive axis b_y + i b_x, per row: one sine and
    # cosine per table entry, gathered and scaled by the coupling, which
    # rounds each part once, as b_xy * sin and b_xy * cos do
    rotor = np.sin(table) + 1j * np.cos(table)
    axes = [b_xy * rotor[row] for row in rows]
    # detuning phase d = 2 pi (T/2) delta of each half, from the carrier
    # error's turns reduced to one turn; the hyperfine offset of a block
    # and the field phases only rotate it by a constant
    turns = half * df
    turns -= np.rint(turns)
    d = TWO_PI * turns
    cd, sd = np.cos(d), np.sin(d)
    c2d, s2d = cd * cd - sd * sd, 2.0 * sd * cd
    p_total = [0.0] * len(axes)
    for m_i in m_i_values:
        hf = TWO_PI * half * params.hyperfine * m_i
        # a2 = d + hf + f2 and a1 + a2 = 2 (d + hf) + f1 + f2
        r2 = (math.cos(hf + f2), math.sin(hf + f2))
        r12 = (math.cos(2.0 * hf + f1 + f2), math.sin(2.0 * hf + f1 + f2))
        b_z = math.pi * (df + params.hyperfine * m_i)
        norm = np.sqrt(b_xy2 + b_z * b_z)
        theta = norm * (t_pi / 2.0)
        c1, s1 = np.cos(theta), np.sin(theta)
        # sin(theta)/|b| -> t_pi/2 as |b| -> 0
        k1 = np.divide(s1, norm, out=np.full(norm.shape, t_pi / 2.0),
                       where=norm > 0.0)
        # the first pulse on |0> is its rotation's first column
        # (u00, k1 (b_y - i b_x)): su2_apply's outputs up to the sign of
        # a zero, which the population squares away; the final pulse has
        # the same diagonal entry u00
        u00 = c1 - 1j * (k1 * b_z)
        e = k1 * (b_xy * (s2d * r12[0] + c2d * r12[1])
                  - 1j * (b_xy * (c2d * r12[0] - s2d * r12[1])))
        g, e = spin.su2_apply(1.0 - 2.0 * s1 * s1, 2.0 * c1 * k1,
                              b_xy * (cd * r2[0] - sd * r2[1]),
                              b_xy * (sd * r2[0] + cd * r2[1]), b_z, u00, e)
        # the final pulse: only its m_S = 0 amplitude is read, so the
        # first output of su2_apply is written out, and its term in the
        # amplitude g, the same for every row, is taken once; both
        # factors are written over g and k1, which are not needed again
        a_g = np.multiply(u00, g, out=g)
        k3 = np.negative(k1, out=k1)
        for r, b_axis in enumerate(axes):
            g3 = a_g + (k3 * b_axis) * e
            p_total[r] = p_total[r] + (g3.real * g3.real + g3.imag * g3.imag)
    envelope = decay.envelope(phase_time)
    out = [0.5 + (p / len(m_i_values) - 0.5) * envelope for p in p_total]
    return np.stack(out) if index.ndim == 2 else out[0]


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
