import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from nvmag.sequences import (SequenceElement, PulseSequence, AcField,
                             CoherenceDecay, hahn_echo, field_evaluation,
                             locked_field, analytic_echo_phase,
                             population_from_phase, echo_populations,
                             pulse_error_response)
from reference_spin import simulate_full

PHASE_TIME = 50e-6
RABI = 5e6


def quadrature_echo_phase(b_ac, phase_time, gamma_e, n=200_001):
    """Independent oracle: gamma_rad * integral B(t) s(t) dt with the echo
    weight s(t) flipping sign at the refocusing pulse."""
    t = np.linspace(0.0, phase_time, n)
    b = b_ac * np.sin(2 * np.pi * t / phase_time)
    s = np.where(t < phase_time / 2, 1.0, -1.0)
    return 2 * np.pi * gamma_e * np.trapezoid(b * s, t)


class TestBuilders:
    def test_pulse_durations(self):
        seq = hahn_echo(PHASE_TIME, RABI)
        pulses = [e for e in seq.elements if e.kind == "pulse"]
        npt.assert_allclose([p.duration for p in pulses], [50e-9, 100e-9, 50e-9])
        npt.assert_allclose([p.rotation for p in pulses],
                            [np.pi / 2, np.pi, np.pi / 2])

    def test_working_point_sequence_shape(self):
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=np.pi / 2)
        kinds = [e.kind for e in seq.elements]
        assert kinds == ["pulse", "delay", "pulse", "delay", "pulse"]
        delays = [e.duration for e in seq.elements if e.kind == "delay"]
        npt.assert_allclose(delays, [PHASE_TIME / 2, PHASE_TIME / 2])
        assert seq.elements[0].phase == 0.0
        assert seq.elements[2].phase == 0.0
        assert seq.elements[-1].phase == pytest.approx(np.pi / 2)

    def test_rejects_pulses_longer_than_free_evolution(self):
        with pytest.raises(ValueError):
            hahn_echo(100e-9, 1e6)  # pi pulse 500 ns > half of 100 ns

    def test_full_evaluation_pads_to_sequence_time(self):
        seq = field_evaluation(PHASE_TIME, RABI, np.pi / 2,
                               laser_time=100e-6, sequence_time=160e-6)
        assert seq.sequence_time == pytest.approx(160e-6)
        total = sum(e.duration for e in seq.elements)
        assert total == pytest.approx(160e-6)
        assert any(e.kind == "laser" for e in seq.elements)

    def test_evaluation_rejects_overfull_sequence(self):
        with pytest.raises(ValueError):
            field_evaluation(PHASE_TIME, RABI, np.pi / 2,
                             laser_time=120e-6, sequence_time=160e-6)

    def test_element_validation(self):
        with pytest.raises(ValueError):
            SequenceElement("pulse", 1e-7, rotation=0.0)
        with pytest.raises(ValueError):
            SequenceElement("delay", -1e-6)
        with pytest.raises(ValueError):
            SequenceElement("laserish", 1e-6)

    def test_sequence_time_invariant(self):
        elements = (SequenceElement("pulse", 1e-7, rotation=np.pi),
                    SequenceElement("delay", 1e-5),
                    SequenceElement("laser", 1e-4))
        with pytest.raises(ValueError):
            PulseSequence(elements, phase_time=1e-5, sequence_time=1e-4)

    def test_locked_field(self):
        f = locked_field(1e-9, PHASE_TIME)
        assert f.frequency == pytest.approx(1.0 / PHASE_TIME)
        assert f.phase == 0.0


class TestAnalyticOracles:
    def test_zero_field_zero_phase(self):
        assert analytic_echo_phase(0.0, PHASE_TIME, 28.7e9) == 0.0

    def test_linearity(self):
        p1 = analytic_echo_phase(1e-9, PHASE_TIME, 28.7e9)
        p2 = analytic_echo_phase(2e-9, PHASE_TIME, 28.7e9)
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_reference_value(self):
        # 1 nT over 50 us at 28.7 GHz/T
        assert analytic_echo_phase(1e-9, 50e-6, 28.7e9) == \
            pytest.approx(5.74e-3, rel=1e-9)

    def test_against_quadrature_oracle(self):
        for b in (1e-10, 1e-9, 5e-9):
            closed = analytic_echo_phase(b, PHASE_TIME, 28.7e9)
            oracle = quadrature_echo_phase(b, PHASE_TIME, 28.7e9)
            assert closed == pytest.approx(oracle, rel=1e-8)

    def test_population_from_phase(self):
        assert population_from_phase(0.0, 0.0) == pytest.approx(1.0)
        assert population_from_phase(0.0, np.pi / 2) == pytest.approx(0.5)
        assert population_from_phase(np.pi, 0.0) == pytest.approx(0.0, abs=1e-12)


def population(seq, params, dg=0.0, df=0.0, **kwargs) -> float:
    """``m_S = 0`` population of one evaluation on the production path."""
    return float(echo_populations(seq, params, dg, df, **kwargs)[0])


class TestSimulation:
    def test_ideal_echo_refocuses(self, params):
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        p = population(seq, params, m_i_values=(0,))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_population_matches_phase_oracle(self, params):
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        for b in (2e-9, 1e-8, 3e-8):
            p = population(seq, params, field=locked_field(b, PHASE_TIME),
                           m_i_values=(0,))
            phi_expected = analytic_echo_phase(b, PHASE_TIME, params.gamma_e)
            phi_sim = np.arccos(2 * p - 1)
            assert phi_sim == pytest.approx(phi_expected, rel=1e-2)

    def test_zero_error_gives_zero_deviation(self, params):
        seq = hahn_echo(PHASE_TIME, RABI)
        p0 = population(seq, params)
        p1 = echo_populations(seq, params, np.zeros(3), np.zeros(3))
        npt.assert_array_equal(p1, p0)

    def test_static_offsets_refocus(self, params):
        # a static field offset dB is a carrier detuning df = gamma_e * dB;
        # the echo refocuses its free-evolution phase (up to 90 rad here),
        # leaving only the second-order error of the detuned pulses
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        for db in (0.0, 1e-8, 1e-6, 1e-5):
            df = params.gamma_e * db
            p = population(seq, params, 0.0, df, m_i_values=(0,))
            assert 0.0 <= 1.0 - p <= 2.0 * (df / RABI) ** 2 + 1e-15

    def test_static_offsets_refocus_in_reference_model(self, full_params):
        # the same offset as a field during the free evolutions only, on
        # top of the bias field the carrier follows
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        for db in (0.0, 1e-8, 1e-6, 1e-5):
            p = simulate_full(seq, full_params, static_field=db,
                              m_i_values=(0,))
            assert p == pytest.approx(1.0, abs=1e-9)

    def test_phase_linearity_in_amplitude(self, params):
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        amps = np.linspace(1e-9, 5.2e-8, 10)  # phases up to ~0.3 rad
        phis = []
        for b in amps:
            p = population(seq, params, field=locked_field(b, PHASE_TIME),
                           m_i_values=(0,))
            phis.append(np.arccos(2 * p - 1))
        phis = np.asarray(phis)
        assert phis[-1] <= 0.31
        slope = phis[-1] / amps[-1]
        npt.assert_allclose(phis, slope * amps, rtol=1e-2)

    def test_working_point_has_maximal_field_sensitivity(self, params):
        db = 2e-9
        field_p = locked_field(db, PHASE_TIME)
        field_m = locked_field(-db, PHASE_TIME)
        responses = {}
        for phase in np.linspace(0, np.pi, 9):
            seq = hahn_echo(PHASE_TIME, RABI, final_phase=phase)
            pp = population(seq, params, field=field_p, m_i_values=(0,))
            pm = population(seq, params, field=field_m, m_i_values=(0,))
            responses[phase] = abs(pp - pm)
        best = max(responses, key=responses.get)
        assert best == pytest.approx(np.pi / 2)

    def test_two_level_matches_full_model(self, full_params):
        seq = hahn_echo(PHASE_TIME, RABI)
        cases = [((0.0, 0.0), 0.0), ((0.02, 0.0), 0.0), ((0.0, 3e4), 0.0),
                 ((0.01, -2e4), 1e-8), ((-0.03, 1e5), 5e-9)]
        for (dg, df), b in cases:
            field = locked_field(b, PHASE_TIME) if b else None
            fast = population(seq, full_params.two_level(), dg, df,
                              field=field)
            full = simulate_full(seq, full_params, dg, df, field=field)
            assert fast == pytest.approx(full, abs=1e-9)

    @pytest.mark.parametrize("method", ["two_level", "full"])
    def test_unlocked_field_matches_quadrature(self, full_params, method):
        # a field neither at the echo frequency nor zero at the refocusing
        # pulse: the exact field integral must still give the echo phase
        # gamma_rad * (int_0^{T/2} B - int_{T/2}^T B), here by quadrature
        field = AcField(amplitude=3e-8, frequency=0.7 / PHASE_TIME, phase=0.4)
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        if method == "two_level":
            p = population(seq, full_params.two_level(), field=field,
                           m_i_values=(0,))
        else:
            p = simulate_full(seq, full_params, field=field, m_i_values=(0,))
        halves = []
        for lo, hi in ((0.0, PHASE_TIME / 2), (PHASE_TIME / 2, PHASE_TIME)):
            t = np.linspace(lo, hi, 200_001)
            halves.append(np.trapezoid(field.value(t), t))
        phi = 2 * np.pi * full_params.gamma_e * (halves[0] - halves[1])
        assert np.arccos(2 * p - 1) == pytest.approx(abs(phi), rel=1e-8)

    def test_decay_envelope_scales_contrast(self, params):
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        decay = CoherenceDecay(t2=100e-6)  # exponent 1 -> envelope exp(-1/2)
        field = locked_field(1e-8, PHASE_TIME)
        p = population(seq, params, field=field, decay=decay,
                       m_i_values=(0,))
        phi = analytic_echo_phase(1e-8, PHASE_TIME, params.gamma_e)
        expected = 0.5 * (1 + np.exp(-0.5) * np.cos(phi))
        assert p == pytest.approx(expected, rel=1e-6)

    def test_decay_exponent_knob(self, params):
        seq = hahn_echo(PHASE_TIME, RABI, final_phase=0.0)
        decay = CoherenceDecay(t2=100e-6, exponent=2.0)
        p = population(seq, params, decay=decay, m_i_values=(0,))
        expected = 0.5 * (1 + np.exp(-0.25))
        assert p == pytest.approx(expected, rel=1e-9)

    def test_batch_matches_scalar_path(self, params):
        seq = hahn_echo(PHASE_TIME, RABI)
        dg = np.array([0.0, 0.01, -0.02])
        df = np.array([0.0, 1e4, -3e4])
        batch = echo_populations(seq, params, dg, df)
        for k in range(3):
            single = population(seq, params, dg[k], df[k])
            assert batch[k] == pytest.approx(single, abs=1e-14)

    def test_alternating_final_phase_batch(self, params):
        seq = hahn_echo(PHASE_TIME, RABI)
        field = locked_field(2e-8, PHASE_TIME)
        phases = np.array([np.pi / 2, -np.pi / 2])
        p = echo_populations(seq, params, 0.0, 0.0, field=field,
                             final_phase=phases, m_i_values=(0,))
        phi = analytic_echo_phase(2e-8, PHASE_TIME, params.gamma_e)
        npt.assert_allclose(p, [0.5 * (1 + np.cos(phi + np.pi / 2)),
                                0.5 * (1 + np.cos(phi - np.pi / 2))], rtol=1e-4)


class TestPulseErrorResponse:
    def test_zero_error_is_exactly_zero(self, params):
        dz = pulse_error_response([0.0], [0.0], phase_time=PHASE_TIME,
                                  rabi=RABI, params=params)
        assert dz[0, 0] <= 1e-12

    def test_amplitude_error_scan_is_linear(self, params):
        dg = np.logspace(-4, -3, 6)
        dz = pulse_error_response(dg, [0.0], phase_time=PHASE_TIME,
                                  rabi=RABI, params=params)[:, 0]
        slope = np.polyfit(np.log10(dg), np.log10(dz), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_frequency_error_scan_is_linear(self, params):
        df = np.logspace(1, 2, 6)
        dz = pulse_error_response([0.0], df, phase_time=PHASE_TIME,
                                  rabi=RABI, params=params)[0, :]
        slope = np.polyfit(np.log10(df), np.log10(dz), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_grid_shape_and_finiteness(self, params):
        dz = pulse_error_response([1e-3, 1e-2], [0.0, 1e3, 1e4],
                                  phase_time=PHASE_TIME, rabi=RABI,
                                  params=params)
        assert dz.shape == (2, 3)
        assert np.all(np.isfinite(dz)) and np.all(dz >= 0)

    def test_rejects_non_finite_grids(self, params):
        with pytest.raises(ValueError):
            pulse_error_response([np.inf], [0.0], phase_time=PHASE_TIME,
                                 rabi=RABI, params=params)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(phi=st.floats(-10, 10), phase=st.floats(-10, 10))
    def test_population_bounds(self, phi, phase):
        p = population_from_phase(phi, phase)
        assert -1e-12 <= p <= 1.0 + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(b=st.floats(1e-11, 1e-7), scale=st.floats(0.1, 3.0))
    def test_analytic_phase_scales_linearly(self, b, scale):
        p1 = analytic_echo_phase(b, PHASE_TIME, 28.7e9)
        p2 = analytic_echo_phase(scale * b, PHASE_TIME, 28.7e9)
        assert p2 == pytest.approx(scale * p1, rel=1e-9)
