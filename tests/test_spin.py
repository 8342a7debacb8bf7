import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from nvmag import spin
from nvmag.spin import HamiltonianParams
from reference_spin import (FullParams, DriveParams, build_operators,
                            static_hamiltonian, drive_hamiltonian_rotating,
                            evolve, transition_frequencies, basis_index,
                            block_detunings, product_state, su2_exp)

TWO_PI = 2 * np.pi


class TestOperators:
    def test_sz_trace_and_spectrum(self):
        ops = build_operators()
        assert abs(np.trace(ops.s_z)) < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(ops.s_z))
        npt.assert_allclose(eigs, [-1, -1, -1, 0, 0, 0, 1, 1, 1], atol=1e-12)

    def test_commutator(self):
        ops = build_operators()
        comm = ops.s_x @ ops.s_y - ops.s_y @ ops.s_x
        npt.assert_allclose(comm, 1j * ops.s_z, atol=1e-12)

    def test_hermitian(self):
        ops = build_operators()
        for m in (ops.s_x, ops.s_y, ops.s_z, ops.i_z):
            npt.assert_allclose(m, m.conj().T, atol=1e-14)

    def test_total_spin(self):
        ops = build_operators()
        s_sq = ops.s_x @ ops.s_x + ops.s_y @ ops.s_y + ops.s_z @ ops.s_z
        npt.assert_allclose(s_sq, 2 * np.eye(9), atol=1e-12)


class TestStaticHamiltonian:
    def test_diagonal_in_product_basis(self, full_params):
        h = static_hamiltonian(full_params)
        npt.assert_allclose(h, np.diag(np.diag(h)), atol=0)

    def test_closed_form_spectrum(self, full_params):
        # independent evaluation of the diagonal energies
        h = np.real(np.diag(static_hamiltonian(full_params)))
        for m_s in (1, 0, -1):
            for m_i in (1, 0, -1):
                expected = TWO_PI * (2.87e9 * m_s**2
                                     + 4.6e-3 * (28.7e9 * m_s + 3.08e6 * m_i)
                                     + 2.16e6 * m_s * m_i)
                got = h[basis_index(m_s, m_i)]
                assert got == pytest.approx(expected, rel=1e-9)

    def test_zero_field_transition_at_zero_field_splitting(self):
        p = FullParams()
        freqs = {(m_s, m_i): f for m_s, m_i, f in transition_frequencies(p)}
        assert freqs[(-1, 0)] == pytest.approx(2.87e9, rel=1e-12)
        assert freqs[(1, 0)] == pytest.approx(2.87e9, rel=1e-12)
        # lower-transition lines follow the hyperfine offsets
        for m_i in (-1, 0, 1):
            assert freqs[(-1, m_i)] == pytest.approx(2.87e9 - 2.16e6 * m_i,
                                                     rel=1e-12)

    def test_bias_field_transition(self, full_params):
        freqs = {(m_s, m_i): f
                 for m_s, m_i, f in transition_frequencies(full_params)}
        assert freqs[(-1, 0)] == pytest.approx(2.87e9 - 28.7e9 * 4.6e-3,
                                               rel=1e-12)
        assert freqs[(-1, 0)] == pytest.approx(2.738e9, rel=1e-4)

    def test_hyperfine_splitting(self, full_params):
        freqs = {(m_s, m_i): f
                 for m_s, m_i, f in transition_frequencies(full_params)}
        assert freqs[(-1, -1)] - freqs[(-1, 0)] == pytest.approx(2.16e6, rel=1e-9)
        assert freqs[(-1, 0)] - freqs[(-1, 1)] == pytest.approx(2.16e6, rel=1e-9)

    def test_nuclear_zeeman_cancels_for_nuclear_preserving_lines(
            self, full_params):
        no_nuclear = FullParams(static_field=4.6e-3, gamma_n=1e-30)
        f1 = sorted(f for *_, f in transition_frequencies(full_params))
        f2 = sorted(f for *_, f in transition_frequencies(no_nuclear))
        npt.assert_allclose(f1, f2, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FullParams(zero_field_splitting=-1.0)
        with pytest.raises(ValueError):
            FullParams(hyperfine=0.0)
        with pytest.raises(ValueError):
            FullParams(static_field=float("nan"))
        with pytest.raises(ValueError):
            HamiltonianParams(hyperfine=0.0)
        with pytest.raises(ValueError):
            HamiltonianParams(gamma_e=float("nan"))

    def test_two_level_keeps_gamma_e_and_hyperfine(self, full_params):
        assert full_params.two_level() == HamiltonianParams()


class TestDrive:
    def test_ideal_resonant_drive_is_x_coupling(self, full_params):
        h = drive_hamiltonian_rotating(full_params, DriveParams(rabi=5e6))
        g, e = basis_index(0, 0), basis_index(-1, 0)
        assert h[g, e] == pytest.approx(np.pi * 5e6)
        assert h[g, e] == pytest.approx(np.conj(h[e, g]))
        assert abs(h[g, g] - h[e, e]) < 1e-6  # resonant block is degenerate

    def test_resonant_pi_pulse_inverts_addressed_block(self, full_params):
        rabi = 5e6
        h = drive_hamiltonian_rotating(full_params, DriveParams(rabi=rabi))
        state = evolve(product_state(0, 0), h, 1.0 / (2 * rabi))
        assert state.population(basis_index(-1, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_hyperfine_detuned_block_becomes_resonant(self, full_params):
        # shifting the carrier by one hyperfine splitting moves the
        # resonance to a neighbouring nuclear line
        rabi, a_hf = 5e6, full_params.hyperfine
        for df, m_i in ((a_hf, -1), (-a_hf, 1)):
            h = drive_hamiltonian_rotating(
                full_params, DriveParams(rabi=rabi, carrier_detuning=df))
            state = evolve(product_state(0, m_i), h, 1.0 / (2 * rabi))
            assert state.population(basis_index(-1, m_i)) == \
                pytest.approx(1.0, abs=1e-9)

    def test_rabi_oscillation_closed_form(self, full_params):
        rabi = 5e6
        h = drive_hamiltonian_rotating(full_params, DriveParams(rabi=rabi))
        e_idx = basis_index(-1, 0)
        for t in np.linspace(10e-9, 400e-9, 9):
            state = evolve(product_state(0, 0), h, t)
            expected = np.sin(np.pi * rabi * t) ** 2
            assert state.population(e_idx) == pytest.approx(expected, abs=1e-6)

    def test_detuned_rabi_generalized_frequency(self, full_params):
        rabi, df = 5e6, 2e6
        h = drive_hamiltonian_rotating(
            full_params, DriveParams(rabi=rabi, carrier_detuning=df))
        omega_gen = np.hypot(rabi, df)
        amp = rabi**2 / omega_gen**2
        e_idx = basis_index(-1, 0)
        for t in np.linspace(20e-9, 300e-9, 7):
            state = evolve(product_state(0, 0), h, t)
            expected = amp * np.sin(np.pi * omega_gen * t) ** 2
            assert state.population(e_idx) == pytest.approx(expected, rel=1e-6,
                                                            abs=1e-9)

    def test_amplitude_error_scales_rotation(self, full_params):
        rabi, dg = 5e6, 0.04
        h = drive_hamiltonian_rotating(
            full_params, DriveParams(rabi=rabi, amplitude_error=dg))
        state = evolve(product_state(0, 0), h, 1.0 / (2 * rabi))
        expected = np.sin(np.pi * (1 + dg) / 2) ** 2
        assert state.population(basis_index(-1, 0)) == pytest.approx(expected,
                                                                     rel=1e-9)

    def test_rejects_far_detuned_carrier(self, full_params):
        with pytest.raises(ValueError):
            drive_hamiltonian_rotating(
                full_params, DriveParams(rabi=1e3, carrier_detuning=2e6))

    def test_drive_validation(self):
        with pytest.raises(ValueError):
            DriveParams(rabi=-1.0)
        with pytest.raises(ValueError):
            DriveParams(rabi=1e6, amplitude_error=-1.0)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        state = product_state(0, 0)
        out = evolve(state, np.zeros((9, 9)), 1e-3)
        npt.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_norm_preserved_over_many_steps(self, full_params, rng):
        h = drive_hamiltonian_rotating(
            full_params, DriveParams(rabi=5e6, carrier_detuning=1e5))
        state = product_state(0, 0)
        for _ in range(2000):
            state = evolve(state, h, rng.uniform(0, 50e-9))
        assert state.norm() == pytest.approx(1.0, abs=1e-9)

    def test_semigroup_property(self, full_params):
        h = drive_hamiltonian_rotating(full_params, DriveParams(rabi=5e6))
        full = evolve(product_state(0, 0), h, 200e-9)
        half = evolve(evolve(product_state(0, 0), h, 100e-9), h, 100e-9)
        npt.assert_allclose(half.amplitudes, full.amplitudes, atol=1e-12)

    def test_rejects_negative_dt(self, full_params):
        with pytest.raises(ValueError):
            evolve(product_state(0, 0), static_hamiltonian(full_params), -1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dt=st.floats(0, 1e-6))
    def test_unitarity_random_hermitian(self, seed, dt):
        r = np.random.default_rng(seed)
        a = r.normal(size=(9, 9)) + 1j * r.normal(size=(9, 9))
        h = (a + a.conj().T) * 1e6
        state = evolve(product_state(0, 0), h, dt)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


class TestTwoLevelHelpers:
    def test_block_detunings(self, full_params):
        d = block_detunings(full_params, 1e3, m_i_values=(-1, 0, 1))
        npt.assert_allclose(d, [1e3 - 2.16e6, 1e3, 1e3 + 2.16e6])

    def test_su2_identity_at_zero_coupling(self):
        g, e = spin.su2_apply(1.0, 1e-6, 0.0, 0.0, 0.0,
                              np.array([1.0 + 0j]), np.array([0.0 + 0j]))
        npt.assert_allclose(g, [1.0], atol=1e-15)
        npt.assert_allclose(e, [0.0], atol=1e-15)

    def test_norm_stable_over_a_million_steps(self, rng):
        # one million random rotations applied through the fast path:
        # 100 states times 10000 sequential steps each
        g = np.ones(100, dtype=complex)
        e = np.zeros(100, dtype=complex)
        for _ in range(10_000):
            b = rng.normal(size=3) * 1e7
            theta = np.linalg.norm(b) * rng.uniform(0, 1e-7)
            g, e = spin.su2_apply(np.cos(theta),
                                  np.sin(theta) / np.linalg.norm(b),
                                  b[0], b[1], b[2], g, e)
        norms = np.abs(g) ** 2 + np.abs(e) ** 2
        npt.assert_allclose(norms, 1.0, atol=1e-9)

    def test_su2_matches_full_model_pulse(self, full_params):
        # one detuned, amplitude-scaled pulse on the m_I = 0 block
        rabi, dg, df, t = 5e6, 0.03, 4e5, 170e-9
        h = drive_hamiltonian_rotating(
            full_params, DriveParams(rabi=rabi, carrier_detuning=df,
                                amplitude_error=dg))
        full = evolve(product_state(0, 0), h, t)
        p_full = full.population(basis_index(-1, 0))
        b_x, b_z = np.pi * rabi * (1 + dg), np.pi * df
        norm = np.hypot(b_x, b_z)
        g, e = spin.su2_apply(np.cos(norm * t), np.sin(norm * t) / norm,
                              b_x, 0.0, b_z,
                              np.array([1.0 + 0j]), np.array([0.0 + 0j]))
        p_fast = abs(e[0]) ** 2
        assert p_fast == pytest.approx(p_full, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(b=st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3),
           t=st.floats(0.0, 1e-6), seed=st.integers(0, 2**31 - 1))
    def test_su2_matches_exponential(self, b, t, seed):
        # the rotation from its cosine and sin/|b| is exp(-i t b.sigma)
        r = np.random.default_rng(seed)
        amp = r.normal(size=(2, 4)) + 1j * r.normal(size=(2, 4))
        norm = float(np.linalg.norm(b))
        k = np.sin(norm * t) / norm if norm > 0 else t
        got = spin.su2_apply(np.cos(norm * t), k, *b, amp[0], amp[1])
        want = su2_exp(*b, t, amp[0], amp[1])
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
