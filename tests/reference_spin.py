"""Full 9-dimensional NV ground-state model: the reference for the
two-level echo.

The electron spin (S = 1) is modelled together with the 14N nuclear spin
(I = 1) on the 9-dimensional product space, with the complete static
Hamiltonian: zero-field splitting, electron and nuclear Zeeman terms in a
static axial field, and the axial hyperfine coupling.  The package
evaluates only the ``m_S = 0, -1`` pair of each hyperfine block in the
frame of a carrier locked to the ``m_I = 0`` line
(:func:`nvmag.sequences.echo_populations`), where the zero-field
splitting, the nuclear Zeeman term and the static field cancel.  Tests
compare the two.

The module also keeps that two-level echo as it was first written, five
stages in order, each pulse the exponential of its own coupling and
duration (:func:`su2_exp`, :func:`echo_populations_stagewise`): the
reference for the package's three shared-trigonometry rotations.

All constructors take plain frequencies in Hz (and fields in tesla);
every matrix is in angular units (rad/s).  Basis ordering is descending
in both quantum numbers, ``(m_S, m_I) = (+1,+1), (+1,0), ... (-1,-1)``,
index ``3*i_S + i_I``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nvmag.spin import NUCLEAR_LEVELS, TWO_PI, HamiltonianParams

ELECTRON_LEVELS = (1, 0, -1)


def basis_index(m_s: int, m_i: int) -> int:
    """Index of the ``|m_S, m_I>`` product state in the 9-dim basis."""
    return 3 * ELECTRON_LEVELS.index(m_s) + NUCLEAR_LEVELS.index(m_i)


def basis_labels() -> tuple[tuple[int, int], ...]:
    return tuple((m_s, m_i) for m_s in ELECTRON_LEVELS for m_i in NUCLEAR_LEVELS)


@dataclass(frozen=True)
class FullParams:
    """Complete static ground-state Hamiltonian parameters: plain
    frequencies in Hz and the static axial field in tesla."""

    zero_field_splitting: float = 2.87e9  # Hz
    gamma_e: float = 28.7e9               # Hz/T
    gamma_n: float = 3.08e6               # Hz/T
    hyperfine: float = 2.16e6             # Hz
    static_field: float = 0.0             # T

    def __post_init__(self):
        values = (self.zero_field_splitting, self.gamma_e, self.gamma_n,
                  self.hyperfine, self.static_field)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("Hamiltonian parameters must be finite")
        if self.zero_field_splitting <= 0:
            raise ValueError("zero-field splitting must be positive")
        if self.hyperfine <= 0 or self.gamma_e <= 0:
            raise ValueError("hyperfine coupling and gamma_e must be positive")

    def two_level(self) -> HamiltonianParams:
        """The parameters that reach the two-level echo."""
        return HamiltonianParams(gamma_e=self.gamma_e, hyperfine=self.hyperfine)

    def level_energy(self, m_s: int, m_i: int) -> float:
        """Energy of ``|m_S, m_I>`` in rad/s (the Hamiltonian is diagonal)."""
        hz = (self.zero_field_splitting * m_s**2
              + self.static_field * (self.gamma_e * m_s + self.gamma_n * m_i)
              + self.hyperfine * m_s * m_i)
        return TWO_PI * hz


@dataclass(frozen=True)
class DriveParams:
    """Microwave drive applied near one electron transition."""

    rabi: float                    # Hz
    carrier_detuning: float = 0.0  # Hz, relative to the addressed transition
    amplitude_error: float = 0.0   # relative, dimensionless
    phase: float = 0.0             # rad

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError("Rabi frequency must be non-negative")
        if self.amplitude_error <= -1.0:
            raise ValueError("relative amplitude error must exceed -1")


@dataclass
class QuantumState:
    """State vector with its basis labels."""

    amplitudes: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def population(self, index: int) -> float:
        return float(abs(self.amplitudes[index]) ** 2)


@dataclass(frozen=True)
class SpinOperatorSet:
    """Spin-1 electron operators and the nuclear projection, all 9x9."""

    s_x: np.ndarray
    s_y: np.ndarray
    s_z: np.ndarray
    i_z: np.ndarray


def _spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / math.sqrt(2)
    return sx, sy, sz


def build_operators() -> SpinOperatorSet:
    """Electron spin-1 operators tensored with the nuclear identity."""
    sx, sy, sz = _spin1_matrices()
    eye = np.eye(3, dtype=complex)
    return SpinOperatorSet(
        s_x=np.kron(sx, eye),
        s_y=np.kron(sy, eye),
        s_z=np.kron(sz, eye),
        i_z=np.kron(eye, sz),
    )


def static_hamiltonian(params: FullParams) -> np.ndarray:
    """9x9 static Hamiltonian in rad/s; diagonal in the product basis."""
    diag = [params.level_energy(m_s, m_i) for m_s, m_i in basis_labels()]
    return np.diag(np.asarray(diag, dtype=float)).astype(complex)


def transition_frequencies(params: FullParams) -> list[tuple[int, int, float]]:
    """Single-quantum electron transition frequencies from the level spectrum.

    Returns ``(m_S_target, m_I, frequency_Hz)`` for the six transitions
    ``|0, m_I> -> |+-1, m_I>``, computed as eigenvalue differences of
    :func:`static_hamiltonian`.
    """
    energies = np.real(np.diag(static_hamiltonian(params)))
    out = []
    for m_s in (1, -1):
        for m_i in NUCLEAR_LEVELS:
            delta = energies[basis_index(m_s, m_i)] - energies[basis_index(0, m_i)]
            out.append((m_s, m_i, abs(delta) / TWO_PI))
    return out


def addressed_transition_frequency(params: FullParams, m_i: int = 0) -> float:
    """Frequency (Hz) of the addressed ``|0> -> |-1>`` line at a given m_I."""
    delta = params.level_energy(-1, m_i) - params.level_energy(0, m_i)
    return abs(delta) / TWO_PI


def rotating_frame_diagonal(params: FullParams,
                            carrier_detuning: float = 0.0) -> np.ndarray:
    """Diagonal (rad/s) of the static Hamiltonian in the carrier frame.

    The frame rotates at the drive carrier, which sits ``carrier_detuning``
    (Hz) above the ``|0> -> |-1>``, ``m_I = 0`` transition; both electron
    ``m_S = +-1`` manifolds are counted as one rotating quantum.
    """
    carrier = TWO_PI * (addressed_transition_frequency(params, m_i=0)
                        + carrier_detuning)
    diag = np.empty(9)
    for m_s, m_i in basis_labels():
        e = params.level_energy(m_s, m_i)
        if m_s != 0:
            e -= carrier
        diag[basis_index(m_s, m_i)] = e
    return diag


def drive_hamiltonian_rotating(params: FullParams,
                               drive: DriveParams) -> np.ndarray:
    """Rotating-frame Hamiltonian (rad/s) for a drive on ``|0> -> |-1>``.

    The rotating-wave approximation keeps only the co-rotating coupling on
    the addressed transition; nuclear-spin projection is conserved, so the
    drive couples ``|0, m_I> <-> |-1, m_I>`` for every ``m_I`` while the
    hyperfine interaction detunes the ``m_I = +-1`` blocks.
    """
    if drive.rabi > 0 and abs(drive.carrier_detuning) > drive.rabi * 1e3:
        raise ValueError(
            "carrier detuning exceeds 1000x the Rabi frequency; "
            "outside the modelled near-resonant regime")
    h = np.diag(rotating_frame_diagonal(params, drive.carrier_detuning)).astype(complex)
    coupling = math.pi * drive.rabi * (1.0 + drive.amplitude_error)  # omega_rad / 2
    phase = np.exp(-1j * drive.phase)
    for m_i in NUCLEAR_LEVELS:
        g = basis_index(0, m_i)
        e = basis_index(-1, m_i)
        h[g, e] += coupling * phase
        h[e, g] += coupling * np.conj(phase)
    return h


def evolve(state: QuantumState, hamiltonian: np.ndarray, dt: float) -> QuantumState:
    """Apply ``exp(-i H dt)`` via eigendecomposition of the Hermitian H."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    w, v = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * w * dt)
    amps = v @ (phases * (v.conj().T @ state.amplitudes))
    return QuantumState(amps, state.labels)


def product_state(m_s: int, m_i: int) -> QuantumState:
    amps = np.zeros(9, dtype=complex)
    amps[basis_index(m_s, m_i)] = 1.0
    return QuantumState(amps, basis_labels())


def polarized_state(m_i_values=NUCLEAR_LEVELS) -> QuantumState:
    """Electron ``m_S = 0`` with equal weight on the given nuclear levels.

    Because the Hamiltonians in this module never couple different ``m_I``
    blocks, the ``m_S = 0`` population of this superposition equals the
    unweighted mean of the per-``m_I`` populations, i.e. the ensemble
    average over an unpolarized nucleus.
    """
    amps = np.zeros(9, dtype=complex)
    for m_i in m_i_values:
        amps[basis_index(0, m_i)] = 1.0
    amps /= np.linalg.norm(amps)
    return QuantumState(amps, basis_labels())


def ms0_population(state: QuantumState) -> float:
    """Total population of the electron ``m_S = 0`` manifold."""
    idx = [basis_index(0, m_i) for m_i in NUCLEAR_LEVELS]
    return float(np.sum(np.abs(state.amplitudes[idx]) ** 2))


def block_detunings(params, carrier_detuning: float,
                    m_i_values=NUCLEAR_LEVELS) -> np.ndarray:
    """Detuning (Hz) of the carrier from each ``|0> -> |-1>`` hyperfine line.

    With the carrier referenced to the ``m_I = 0`` line, block ``m_I`` sees
    ``carrier_detuning + hyperfine * m_I``.
    """
    m_i = np.asarray(m_i_values, dtype=float)
    return carrier_detuning + params.hyperfine * m_i


@dataclass(frozen=True)
class AcField:
    """Test field ``B(t) = amplitude * sin(2 pi frequency t + phase)``.

    The package evaluates only the phase-locked case
    (:func:`locked_field`); the reference also takes unlocked fields.
    """

    amplitude: float           # T
    frequency: float           # Hz
    phase: float = 0.0         # rad

    def value(self, t):
        return self.amplitude * np.sin(TWO_PI * self.frequency * t + self.phase)


def locked_field(amplitude: float, phase_time: float) -> AcField:
    """The package's test field: period ``phase_time``, zero crossing on
    the refocusing pulse."""
    return AcField(amplitude=amplitude, frequency=1.0 / phase_time)


def field_integral(field, static_field: float, t_start: float,
                   duration: float) -> float:
    """``integral B(t) dt`` over a free evolution: a static offset plus the
    sine ``A/w [cos(w t0 + phi) - cos(w (t0 + d) + phi)]``."""
    total = static_field * duration
    if field is None:
        return total
    w = TWO_PI * field.frequency
    return total + field.amplitude / w * (
        math.cos(w * t_start + field.phase)
        - math.cos(w * (t_start + duration) + field.phase))


def simulate_full(phase_time: float, rabi: float, params: FullParams,
                  amplitude_error: float = 0.0, frequency_error: float = 0.0,
                  field=None, decay=None, *, final_phase: float = math.pi / 2,
                  static_field: float = 0.0,
                  m_i_values=NUCLEAR_LEVELS) -> float:
    """Final ``m_S = 0`` population of the echo
    ``(pi/2)_x - T/2 - (pi)_x - T/2 - (pi/2)_final_phase`` in the full model.

    The pulses take ``1/(4 rabi)``, ``1/(2 rabi)`` and ``1/(4 rabi)``.
    ``static_field`` (T) adds to the field during the free evolutions
    only, on top of the bias field of ``params``, which the carrier
    follows.
    """
    t_pi = 1.0 / (2.0 * rabi)
    half = phase_time / 2.0
    frame = rotating_frame_diagonal(params, frequency_error)
    s_z_diag = np.real(np.diag(build_operators().s_z))

    def pulse(state, rotation, duration, phase):
        drive = DriveParams(rabi=rotation / (TWO_PI * duration),
                            carrier_detuning=frequency_error,
                            amplitude_error=amplitude_error, phase=phase)
        return evolve(state, drive_hamiltonian_rotating(params, drive),
                      duration)

    def free(state, t_start):
        # diagonal free evolution; the field integral is exact here
        b_int = field_integral(field, static_field, t_start, half)
        phase = frame * half + TWO_PI * params.gamma_e * s_z_diag * b_int
        return QuantumState(state.amplitudes * np.exp(-1j * phase),
                            state.labels)

    state = pulse(polarized_state(m_i_values), math.pi / 2, t_pi / 2, 0.0)
    state = free(state, 0.0)
    state = pulse(state, math.pi, t_pi, 0.0)
    state = free(state, half)
    state = pulse(state, math.pi / 2, t_pi / 2, final_phase)
    p = ms0_population(state)
    if decay is not None:
        p = 0.5 + (p - 0.5) * decay.envelope(phase_time)
    return float(p)


# ---------------------------------------------------------------------------
# the two-level echo, stage by stage
# ---------------------------------------------------------------------------

def su2_exp(b_x, b_y, b_z, duration, amp_g, amp_e):
    """Apply ``exp(-i t (b_x sx + b_y sy + b_z sz))`` to batched 2-level
    states, from the coupling (rad/s) and the duration ``t``: the
    reference for :func:`nvmag.spin.su2_apply`, which takes the rotation's
    cosine and ``sin/|b|`` instead.  Returns the new ``(amp_g, amp_e)``.
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


def _pulse(rotation: float, duration: float, phase, dg, b_z, g, e):
    """A drive pulse of nominal angle ``rotation`` about the axis at
    ``phase``, with relative amplitude error ``dg``."""
    omega = rotation / (TWO_PI * duration) * (1.0 + dg)
    b_x = math.pi * omega * np.cos(phase)
    b_y = math.pi * omega * np.sin(phase)
    return su2_exp(b_x, b_y, b_z, duration, g, e)


def echo_populations_stagewise(phase_time: float, rabi: float,
                               params: HamiltonianParams, amplitude_error=0.0,
                               frequency_error=0.0, field_amplitude=0.0,
                               decay=None, *, final_phase=math.pi / 2,
                               m_i_values=NUCLEAR_LEVELS) -> np.ndarray:
    """The two-level echo of :func:`nvmag.sequences.echo_populations`
    propagated through its five stages in order: each pulse an
    exponential of its own coupling and duration, each free evolution a
    diagonal phase on the excited level."""
    t_pi = 1.0 / (2.0 * rabi)
    half = phase_time / 2.0
    dg = np.atleast_1d(np.asarray(amplitude_error, dtype=float))
    df = np.atleast_1d(np.asarray(frequency_error, dtype=float))
    fp = np.asarray(final_phase, dtype=float)
    if fp.ndim:
        dg, df, fp = np.broadcast_arrays(dg, df, fp)
    else:
        dg, df = np.broadcast_arrays(dg, df)
    n = dg.shape[0]
    # field phase of each free evolution; excited-level energy
    # -2*pi*delta - gamma_rad * B(t)
    field = locked_field(field_amplitude, phase_time)
    field_phase = [TWO_PI * params.gamma_e * field_integral(field, 0.0, t0, half)
                   for t0 in (0.0, half)]
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
    if decay is not None:
        p = 0.5 + (p - 0.5) * decay.envelope(phase_time)
    return p
