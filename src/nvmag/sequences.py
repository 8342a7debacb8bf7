"""Pulsed measurement sequences: spin-echo AC magnetometry and pulse errors.

The workhorse protocol is the phase-locked spin echo
``(pi/2)_x - T/2 - (pi)_x - T/2 - (pi/2)_phi`` whose ``m_S = 0`` population
responds to an in-phase AC field of period equal to the free-evolution
time.  :func:`simulate_sequence` propagates a sequence either through the
full 9-dimensional model or through the exactly-equivalent two-level fast
path; :func:`echo_populations` is the vectorized fast path used by the
Monte Carlo experiments.

Conventions: the AC field acts only while the spin evolves freely (the
pulses are hundreds of times shorter than the free evolutions and the
field accumulated during them is neglected), and its time coordinate is
the accumulated free-evolution time, so the sine's zero crossing falls on
the refocusing pulse regardless of pulse durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spin
from .spin import TWO_PI, HamiltonianParams

NUCLEAR_LEVELS = spin.NUCLEAR_LEVELS


@dataclass(frozen=True)
class SequenceElement:
    """One stage of a pulse sequence: a microwave pulse, a free evolution
    (``delay``) or a laser window."""

    kind: str            # "pulse" | "delay" | "laser"
    duration: float      # s
    phase: float = 0.0   # pulse phase, rad
    rotation: float = 0.0  # nominal rotation angle, rad (pulses)
    amplitude: float = 1.0  # relative drive scale (pulses)
    role: str = ""       # window tag for laser elements

    def __post_init__(self):
        if self.kind not in ("pulse", "delay", "laser"):
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.duration <= 0:
            raise ValueError("element duration must be positive")
        if self.kind == "pulse" and not 0.0 < self.rotation <= TWO_PI:
            raise ValueError("pulse rotation must lie in (0, 2*pi]")

    @property
    def nominal_rabi(self) -> float:
        """Rabi frequency (Hz) implied by rotation angle and duration."""
        return self.rotation / (TWO_PI * self.duration)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered elements of one field evaluation.

    ``phase_time`` is the total free-evolution (phase accumulation) time
    and ``sequence_time`` the full duration of the evaluation including
    readout and padding.
    """

    elements: tuple[SequenceElement, ...]
    phase_time: float
    sequence_time: float

    def __post_init__(self):
        pulse_time = sum(e.duration for e in self.elements if e.kind == "pulse")
        laser_time = sum(e.duration for e in self.elements if e.kind == "laser")
        if self.sequence_time + 1e-15 < self.phase_time + pulse_time + laser_time:
            raise ValueError("sequence_time shorter than its pulses, free "
                             "evolutions and laser windows combined")

    def pulse_times(self) -> float:
        return sum(e.duration for e in self.elements if e.kind == "pulse")


@dataclass(frozen=True)
class AcField:
    """Sinusoidal test field ``B(t) = amplitude * sin(2 pi f t + phase)``.

    For the phase-locked protocol ``frequency = 1/phase_time`` and
    ``phase = 0``, putting the zero crossing on the refocusing pulse.
    """

    amplitude: float           # T
    frequency: float           # Hz
    phase: float = 0.0         # rad

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.amplitude, self.frequency,
                                               self.phase)):
            raise ValueError("AC field parameters must be finite")
        if self.frequency <= 0:
            raise ValueError("field frequency must be positive")

    def value(self, t):
        return self.amplitude * np.sin(TWO_PI * self.frequency * t + self.phase)


def locked_field(amplitude: float, phase_time: float) -> AcField:
    """Field phase-locked to an echo of free-evolution time ``phase_time``."""
    return AcField(amplitude=amplitude, frequency=1.0 / phase_time)


@dataclass(frozen=True)
class CoherenceDecay:
    """Echo contrast envelope ``exp(-(T/t2)**exponent)``."""

    t2: float
    exponent: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.t2) and math.isfinite(self.exponent)):
            raise ValueError("decay parameters must be finite")
        if self.t2 <= 0 or self.exponent <= 0:
            raise ValueError("coherence time and exponent must be positive")

    def envelope(self, phase_time: float) -> float:
        return math.exp(-((phase_time / self.t2) ** self.exponent))


def hahn_echo(phase_time: float, rabi: float,
              final_phase: float = math.pi / 2) -> PulseSequence:
    """Spin echo ``(pi/2)_x - T/2 - (pi)_x - T/2 - (pi/2)_final_phase``.

    Pulse durations follow from the Rabi frequency: ``1/(4 rabi)`` for the
    pi/2 pulses and ``1/(2 rabi)`` for the pi pulse.
    """
    if phase_time <= 0 or rabi <= 0:
        raise ValueError("phase_time and rabi must be positive")
    t_pi = 1.0 / (2.0 * rabi)
    if t_pi > phase_time / 2:
        raise ValueError("pulse durations exceed half the free evolution; "
                         "increase the Rabi frequency or the phase time")
    half = phase_time / 2.0
    elements = (
        SequenceElement("pulse", t_pi / 2, phase=0.0, rotation=math.pi / 2),
        SequenceElement("delay", half),
        SequenceElement("pulse", t_pi, phase=0.0, rotation=math.pi),
        SequenceElement("delay", half),
        SequenceElement("pulse", t_pi / 2, phase=final_phase, rotation=math.pi / 2),
    )
    mw_time = phase_time + 2 * t_pi
    return PulseSequence(elements, phase_time=phase_time, sequence_time=mw_time)


def field_evaluation(phase_time: float, rabi: float, final_phase: float,
                     laser_time: float, sequence_time: float) -> PulseSequence:
    """Full evaluation: echo, laser readout window, then padding delay."""
    echo = hahn_echo(phase_time, rabi, final_phase)
    used = echo.sequence_time + laser_time
    if used > sequence_time + 1e-15:
        raise ValueError("echo plus laser window do not fit in sequence_time")
    elements = list(echo.elements)
    elements.append(SequenceElement("laser", laser_time, role="readout"))
    padding = sequence_time - used
    if padding > 1e-12:
        elements.append(SequenceElement("delay", padding))
    return PulseSequence(tuple(elements), phase_time=phase_time,
                         sequence_time=sequence_time)


def analytic_echo_phase(b_ac: float, phase_time: float, gamma_e: float) -> float:
    """Closed-form echo phase for the phase-locked in-phase sine.

    The echo weight flips sign at the refocusing pulse, so a sine of
    period ``phase_time`` with its zero crossing there contributes
    ``(2/pi) * (2 pi gamma_e) * B * phase_time`` of accumulated phase.
    """
    return 4.0 * gamma_e * b_ac * phase_time


def population_from_phase(phi: float, final_phase: float) -> float:
    """``m_S = 0`` population after the echo: ``(1 + cos(phi + final_phase))/2``."""
    return 0.5 * (1.0 + np.cos(phi + final_phase))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def _field_integral(field: AcField | None, static_field: float,
                    t_start: float, duration: float) -> float:
    """Exact ``integral B(t) dt`` over a free evolution:
    ``A/w [cos(w t0 + phi) - cos(w (t0 + d) + phi)]`` for the sine."""
    total = static_field * duration
    if field is None or field.amplitude == 0.0:
        return total
    w = TWO_PI * field.frequency
    return total + field.amplitude / w * (
        math.cos(w * t_start + field.phase)
        - math.cos(w * (t_start + duration) + field.phase))


def echo_populations(seq: PulseSequence, params: HamiltonianParams,
                     amplitude_error=0.0, frequency_error=0.0,
                     field: AcField | None = None,
                     decay: CoherenceDecay | None = None, *,
                     final_phase=None,
                     static_field: float = 0.0,
                     m_i_values=NUCLEAR_LEVELS) -> np.ndarray:
    """Vectorized two-level evaluation of ``m_S = 0`` populations.

    ``amplitude_error``, ``frequency_error`` (Hz) and ``final_phase`` may
    be scalars or equal-length arrays; each entry is one independent
    evaluation of the sequence, with the errors held constant within a
    sequence.  Populations are averaged over the hyperfine blocks in
    ``m_i_values`` (the drive is referenced to the ``m_I = 0`` line).
    """
    dg = np.atleast_1d(np.asarray(amplitude_error, dtype=float))
    df = np.atleast_1d(np.asarray(frequency_error, dtype=float))
    if final_phase is None:
        dg, df = np.broadcast_arrays(dg, df)
        fp = None
    else:
        fp = np.atleast_1d(np.asarray(final_phase, dtype=float))
        dg, df, fp = np.broadcast_arrays(dg, df, fp)
    n = dg.shape[0]

    pulse_indices = [i for i, e in enumerate(seq.elements) if e.kind == "pulse"]
    last_pulse_index = pulse_indices[-1] if pulse_indices else -1

    p_total = np.zeros(n)
    for m_i in m_i_values:
        delta = df + params.hyperfine * m_i  # Hz, per evaluation
        g = np.ones(n, dtype=complex)
        e = np.zeros(n, dtype=complex)
        t_free = 0.0
        for index, element in enumerate(seq.elements):
            if element.kind == "laser":
                break
            if element.kind == "pulse":
                omega = element.nominal_rabi * element.amplitude * (1.0 + dg)
                b_z = math.pi * delta
                phase = element.phase
                if fp is not None and index == last_pulse_index:
                    phase = fp
                b_x = math.pi * omega * np.cos(phase)
                b_y = math.pi * omega * np.sin(phase)
                g, e = spin.su2_apply(b_x, b_y, b_z, element.duration, g, e)
            else:  # delay: diagonal evolution, exact given the field integral
                b_int = _field_integral(field, static_field, t_free,
                                        element.duration)
                # excited-level energy: -2*pi*delta - gamma_rad * B(t)
                phase_e = TWO_PI * delta * element.duration \
                    + TWO_PI * params.gamma_e * b_int
                e = e * np.exp(1j * phase_e)
                t_free += element.duration
        p_total += np.abs(g) ** 2
    p = p_total / len(m_i_values)
    if decay is not None:
        p = 0.5 + (p - 0.5) * decay.envelope(seq.phase_time)
    return p


def _simulate_full(seq: PulseSequence, params: HamiltonianParams,
                   amplitude_error: float, frequency_error: float,
                   field, decay, static_field, m_i_values) -> float:
    state = spin.polarized_state(m_i_values)
    frame = spin.rotating_frame_diagonal(params, frequency_error)
    s_z_diag = np.real(np.diag(spin.build_operators().s_z))
    t_free = 0.0
    for element in seq.elements:
        if element.kind == "laser":
            break
        if element.kind == "pulse":
            drive = spin.DriveParams(
                rabi=element.nominal_rabi * element.amplitude,
                carrier_detuning=frequency_error,
                amplitude_error=amplitude_error,
                phase=element.phase)
            h = spin.drive_hamiltonian_rotating(params, drive)
            state = spin.evolve(state, h, element.duration)
        else:
            # diagonal free evolution; the field integral is exact here
            b_int = _field_integral(field, static_field, t_free,
                                    element.duration)
            phase = frame * element.duration \
                + TWO_PI * params.gamma_e * s_z_diag * b_int
            state = spin.QuantumState(state.amplitudes * np.exp(-1j * phase),
                                      state.labels)
            t_free += element.duration
    p = spin.ms0_population(state)
    if decay is not None:
        p = 0.5 + (p - 0.5) * decay.envelope(seq.phase_time)
    return float(p)


def simulate_sequence(seq: PulseSequence, params: HamiltonianParams,
                      drive_error=(0.0, 0.0),
                      field: AcField | None = None,
                      decay: CoherenceDecay | None = None, *,
                      static_field: float = 0.0,
                      m_i_values=NUCLEAR_LEVELS,
                      method: str = "two_level") -> float:
    """Propagate one sequence and return the final ``m_S = 0`` population.

    ``drive_error`` is the pair (relative amplitude error, carrier
    frequency error in Hz), constant across the sequence.  ``method``
    selects the two-level fast path or the full 9-dimensional model;
    they agree to numerical precision for a drive addressing the
    ``0 -> -1`` transition.
    """
    dg, df = drive_error
    if method == "two_level":
        p = echo_populations(seq, params, dg, df, field, decay,
                             static_field=static_field, m_i_values=m_i_values)
        return float(p[0])
    if method == "full":
        return _simulate_full(seq, params, dg, df, field, decay,
                              static_field, m_i_values)
    raise ValueError(f"unknown method {method!r}")


def pulse_error_response(amplitude_errors, frequency_errors, *,
                         phase_time: float, rabi: float,
                         params: HamiltonianParams | None = None,
                         final_phase: float = math.pi / 2,
                         m_i_values=NUCLEAR_LEVELS) -> np.ndarray:
    """Population error table over a grid of drive errors.

    Returns ``|p(dg, df) - p(0, 0)|`` for every pair of the given relative
    amplitude errors and carrier frequency errors (Hz), at zero field and
    the equal-population working point.  Shape is
    ``(len(amplitude_errors), len(frequency_errors))``.
    """
    if params is None:
        params = HamiltonianParams()
    dg = np.asarray(amplitude_errors, dtype=float)
    df = np.asarray(frequency_errors, dtype=float)
    if not (np.all(np.isfinite(dg)) and np.all(np.isfinite(df))):
        raise ValueError("error grids must be finite")
    seq = hahn_echo(phase_time, rabi, final_phase)
    gg, ff = np.meshgrid(dg, df, indexing="ij")
    p = echo_populations(seq, params, gg.ravel(), ff.ravel(),
                         m_i_values=m_i_values)
    p0 = echo_populations(seq, params, 0.0, 0.0, m_i_values=m_i_values)[0]
    return np.abs(p.reshape(gg.shape) - p0)
