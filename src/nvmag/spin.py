"""NV ground-state spin model: operators, Hamiltonians, unitary propagation.

The electron spin (S = 1) is modelled together with the 14N nuclear spin
(I = 1) on the 9-dimensional product space.  All public constructors take
plain frequencies in Hz (and fields in tesla); every internal matrix is in
angular units (rad/s) so that no other module ever multiplies by 2*pi.

Basis ordering is descending in both quantum numbers,
``(m_S, m_I) = (+1,+1), (+1,0), ... (-1,-1)``, index ``3*i_S + i_I``.

A reduced two-level fast path (the ``m_S = 0, -1`` pair at fixed ``m_I``)
is provided through :func:`block_detunings` and :func:`su2_apply`; it is
exactly equivalent to the 9-dimensional model for a drive addressing the
``0 -> -1`` transition and is what the Monte Carlo code uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

#: descending basis order used for all 9-dimensional matrices
ELECTRON_LEVELS = (1, 0, -1)
NUCLEAR_LEVELS = (1, 0, -1)


def basis_index(m_s: int, m_i: int) -> int:
    """Index of the ``|m_S, m_I>`` product state in the 9-dim basis."""
    return 3 * ELECTRON_LEVELS.index(m_s) + NUCLEAR_LEVELS.index(m_i)


def basis_labels() -> tuple[tuple[int, int], ...]:
    return tuple((m_s, m_i) for m_s in ELECTRON_LEVELS for m_i in NUCLEAR_LEVELS)


@dataclass(frozen=True)
class HamiltonianParams:
    """Static ground-state Hamiltonian parameters.

    Parameters are plain (non-angular) frequencies in Hz and the static
    axial field in tesla.  Defaults are the values used throughout the
    rest of the package.
    """

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
    """State vector with its basis labels; dimension 9 or 2."""

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


def static_hamiltonian(params: HamiltonianParams) -> np.ndarray:
    """9x9 static Hamiltonian in rad/s; diagonal in the product basis."""
    diag = [params.level_energy(m_s, m_i) for m_s, m_i in basis_labels()]
    return np.diag(np.asarray(diag, dtype=float)).astype(complex)


def transition_frequencies(params: HamiltonianParams) -> list[tuple[int, int, float]]:
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


def addressed_transition_frequency(params: HamiltonianParams, m_i: int = 0) -> float:
    """Frequency (Hz) of the addressed ``|0> -> |-1>`` line at a given m_I."""
    delta = params.level_energy(-1, m_i) - params.level_energy(0, m_i)
    return abs(delta) / TWO_PI


def rotating_frame_diagonal(params: HamiltonianParams,
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


def drive_hamiltonian_rotating(params: HamiltonianParams,
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


# ---------------------------------------------------------------------------
# two-level fast path
# ---------------------------------------------------------------------------

def block_detunings(params: HamiltonianParams, carrier_detuning: float,
                    m_i_values=NUCLEAR_LEVELS) -> np.ndarray:
    """Detuning (Hz) of the carrier from each ``|0> -> |-1>`` hyperfine line.

    With the carrier referenced to the ``m_I = 0`` line, block ``m_I`` sees
    ``carrier_detuning + hyperfine * m_I``.
    """
    m_i = np.asarray(m_i_values, dtype=float)
    return carrier_detuning + params.hyperfine * m_i


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
