import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from nvmag.spin import HamiltonianParams
from nvmag.sequences import (CoherenceDecay, analytic_echo_phase,
                             pi_pulse_time, echo_populations,
                             pulse_error_response)
from reference_spin import (AcField, echo_populations_per_evaluation,
                            echo_populations_stagewise, locked_field,
                            simulate_full)

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
        t_pi = pi_pulse_time(PHASE_TIME, RABI)
        npt.assert_allclose([t_pi / 2, t_pi, t_pi / 2], [50e-9, 100e-9, 50e-9])

    def test_rejects_pulses_longer_than_free_evolution(self, params):
        # pi pulse 500 ns > half of 100 ns
        with pytest.raises(ValueError, match="half the free evolution"):
            pi_pulse_time(100e-9, 1e6)
        with pytest.raises(ValueError, match="half the free evolution"):
            echo_populations(100e-9, 1e6, params)


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


def population_from_phase(phi, final_phase):
    """``m_S = 0`` population after an echo phase ``phi``:
    ``(1 + cos(phi + final_phase))/2``."""
    return 0.5 * (1.0 + np.cos(phi + final_phase))


def population(params, dg=0.0, df=0.0, **kwargs) -> float:
    """``m_S = 0`` population of one evaluation on the production path."""
    return float(echo_populations(PHASE_TIME, RABI, params, dg, df,
                                  **kwargs)[0])


class TestSimulation:
    def test_ideal_echo_refocuses(self, params):
        p = population(params, final_phase=0.0, m_i_values=(0,))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_population_matches_phase_oracle(self, params):
        for b in (2e-9, 1e-8, 3e-8):
            p = population(params, field_amplitude=b, final_phase=0.0,
                           m_i_values=(0,))
            phi_expected = analytic_echo_phase(b, PHASE_TIME, params.gamma_e)
            phi_sim = np.arccos(2 * p - 1)
            assert phi_sim == pytest.approx(phi_expected, rel=1e-2)

    def test_zero_error_gives_zero_deviation(self, params):
        p0 = population(params)
        p1 = echo_populations(PHASE_TIME, RABI, params, np.zeros(3),
                              np.zeros(3))
        npt.assert_array_equal(p1, p0)

    def test_static_offsets_refocus(self, params):
        # a static field offset dB is a carrier detuning df = gamma_e * dB;
        # the echo refocuses its free-evolution phase (up to 90 rad here),
        # leaving only the second-order error of the detuned pulses
        for db in (0.0, 1e-8, 1e-6, 1e-5):
            df = params.gamma_e * db
            p = population(params, 0.0, df, final_phase=0.0, m_i_values=(0,))
            assert 0.0 <= 1.0 - p <= 2.0 * (df / RABI) ** 2 + 1e-15

    def test_static_offsets_refocus_in_reference_model(self, full_params):
        # the same offset as a field during the free evolutions only, on
        # top of the bias field the carrier follows
        for db in (0.0, 1e-8, 1e-6, 1e-5):
            p = simulate_full(PHASE_TIME, RABI, full_params, final_phase=0.0,
                              static_field=db, m_i_values=(0,))
            assert p == pytest.approx(1.0, abs=1e-9)

    def test_phase_linearity_in_amplitude(self, params):
        amps = np.linspace(1e-9, 5.2e-8, 10)  # phases up to ~0.3 rad
        phis = []
        for b in amps:
            p = population(params, field_amplitude=b, final_phase=0.0,
                           m_i_values=(0,))
            phis.append(np.arccos(2 * p - 1))
        phis = np.asarray(phis)
        assert phis[-1] <= 0.31
        slope = phis[-1] / amps[-1]
        npt.assert_allclose(phis, slope * amps, rtol=1e-2)

    def test_working_point_has_maximal_field_sensitivity(self, params):
        db = 2e-9
        responses = {}
        for phase in np.linspace(0, np.pi, 9):
            pp, pm = (population(params, field_amplitude=b, final_phase=phase,
                                 m_i_values=(0,)) for b in (db, -db))
            responses[phase] = abs(pp - pm)
        best = max(responses, key=responses.get)
        assert best == pytest.approx(np.pi / 2)

    def test_two_level_matches_full_model(self, full_params):
        cases = [((0.0, 0.0), 0.0), ((0.02, 0.0), 0.0), ((0.0, 3e4), 0.0),
                 ((0.01, -2e4), 1e-8), ((-0.03, 1e5), 5e-9)]
        for (dg, df), b in cases:
            fast = population(full_params.two_level(), dg, df,
                              field_amplitude=b)
            full = simulate_full(PHASE_TIME, RABI, full_params, dg, df,
                                 field=locked_field(b, PHASE_TIME))
            assert fast == pytest.approx(full, abs=1e-9)

    def test_unlocked_field_matches_quadrature(self, full_params):
        # a field neither at the echo frequency nor zero at the refocusing
        # pulse: the reference model's exact field integral must still
        # give the echo phase gamma_rad * (int_0^{T/2} B - int_{T/2}^T B),
        # here by quadrature
        field = AcField(amplitude=3e-8, frequency=0.7 / PHASE_TIME, phase=0.4)
        p = simulate_full(PHASE_TIME, RABI, full_params, field=field,
                          final_phase=0.0, m_i_values=(0,))
        halves = []
        for lo, hi in ((0.0, PHASE_TIME / 2), (PHASE_TIME / 2, PHASE_TIME)):
            t = np.linspace(lo, hi, 200_001)
            halves.append(np.trapezoid(field.value(t), t))
        phi = 2 * np.pi * full_params.gamma_e * (halves[0] - halves[1])
        assert np.arccos(2 * p - 1) == pytest.approx(abs(phi), rel=1e-8)

    def test_decay_envelope_scales_contrast(self, params):
        decay = CoherenceDecay(t2=100e-6)  # exponent 1 -> envelope exp(-1/2)
        p = population(params, field_amplitude=1e-8, decay=decay,
                       final_phase=0.0, m_i_values=(0,))
        phi = analytic_echo_phase(1e-8, PHASE_TIME, params.gamma_e)
        expected = 0.5 * (1 + np.exp(-0.5) * np.cos(phi))
        assert p == pytest.approx(expected, rel=1e-6)

    def test_decay_exponent_knob(self, params):
        decay = CoherenceDecay(t2=100e-6, exponent=2.0)
        p = population(params, decay=decay, final_phase=0.0, m_i_values=(0,))
        expected = 0.5 * (1 + np.exp(-0.25))
        assert p == pytest.approx(expected, rel=1e-9)

    def test_batch_matches_scalar_path(self, params):
        dg = np.array([0.0, 0.01, -0.02])
        df = np.array([0.0, 1e4, -3e4])
        batch = echo_populations(PHASE_TIME, RABI, params, dg, df)
        for k in range(3):
            single = population(params, dg[k], df[k])
            assert batch[k] == pytest.approx(single, abs=1e-14)

    def test_alternating_final_phase_batch(self, params):
        phases = np.array([np.pi / 2, -np.pi / 2])
        p = echo_populations(PHASE_TIME, RABI, params, 0.0, 0.0,
                             field_amplitude=2e-8, final_phase=phases,
                             m_i_values=(0,))
        phi = analytic_echo_phase(2e-8, PHASE_TIME, params.gamma_e)
        npt.assert_allclose(p, [0.5 * (1 + np.cos(phi + np.pi / 2)),
                                0.5 * (1 + np.cos(phi - np.pi / 2))], rtol=1e-4)


class TestSharedEcho:
    """A 2-D final phase runs every row against the same evaluations:
    the rows share the pulses before the final one, and each row equals
    the call with that row alone, bit for bit (the scheme groups' echo
    in :func:`nvmag.experiments._scheme_series`)."""

    @pytest.mark.parametrize("n", [1, 7, 8, 3616, 16389])
    @pytest.mark.parametrize("field", [0.0, 3e-8])
    @pytest.mark.parametrize("decay", [CoherenceDecay(),
                                       CoherenceDecay(t2=100e-6)])
    @pytest.mark.parametrize("m_i_values", [(1, 0, -1), (0,)])
    def test_rows_equal_one_call_per_row(self, params, n, field, decay,
                                         m_i_values):
        r = np.random.default_rng(n)
        dg = r.normal(size=n) * 1e-3
        df = r.normal(size=n) * 1e4
        phase = np.pi / 2
        # the constant final phase of A/B and the alternating one of C/D
        final = np.stack([np.full(n, phase),
                          np.where(np.arange(n) % 2, -phase, phase)])
        kwargs = dict(field_amplitude=field, decay=decay,
                      m_i_values=m_i_values)
        shared = echo_populations(PHASE_TIME, RABI, params, dg, df,
                                  final_phase=final, **kwargs)
        assert shared.shape == (2, n)
        for row, p in zip(final, shared):
            alone = echo_populations(PHASE_TIME, RABI, params, dg, df,
                                     final_phase=row, **kwargs)
            npt.assert_array_equal(p, alone)


class TestAgainstStagewiseEcho:
    """The three shared-trigonometry rotations against the five stages
    propagated one by one, each pulse the exponential of its own
    coupling and duration."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           dg_scale=st.sampled_from([0.0, 1e-4, 1e-2, 0.3]),
           df_scale=st.sampled_from([0.0, 10.0, 1e4, 3e6]),
           amplitude=st.floats(-1e-6, 1e-6),
           decay=st.sampled_from([CoherenceDecay(), CoherenceDecay(t2=100e-6),
                                  CoherenceDecay(t2=70e-6, exponent=2.0)]),
           final_phase=st.floats(-np.pi, np.pi),
           m_i_values=st.sampled_from([(-1, 0, 1), (0,), (1,)]))
    def test_matches_stagewise_echo(self, seed, dg_scale, df_scale,
                                    amplitude, decay, final_phase,
                                    m_i_values):
        params = HamiltonianParams()
        r = np.random.default_rng(seed)
        dg = r.normal(size=64) * dg_scale
        df = r.normal(size=64) * df_scale
        # both final phases, alternating as the paired schemes run them
        phases = np.where(np.arange(64) % 2, -final_phase, final_phase)
        kwargs = dict(field_amplitude=amplitude, final_phase=phases,
                      m_i_values=m_i_values)
        got = echo_populations(PHASE_TIME, RABI, params, dg, df,
                               decay=decay, **kwargs)
        want = echo_populations_stagewise(PHASE_TIME, RABI, params, dg, df,
                                          decay=decay, **kwargs)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_coupling_block(self, params):
        # dg = -1 switches the drive off and df = 0 leaves the m_I = 0
        # block on resonance: |b| = 0, and the state stays in |0>
        for phase in (np.pi / 2, -np.pi / 2, 0.3):
            got = echo_populations(PHASE_TIME, RABI, params, -1.0, 0.0,
                                   final_phase=phase, m_i_values=(0,))
            want = echo_populations_stagewise(PHASE_TIME, RABI, params, -1.0,
                                              0.0, final_phase=phase,
                                              m_i_values=(0,))
            npt.assert_array_equal(got, [1.0])
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestFinalPulseWrittenOut:
    """The final pulse computes only the ``m_S = 0`` amplitude, the one
    the population reads; the populations equal, bit for bit, those of
    that pulse through ``su2_apply``, which also computes the other."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           dg_scale=st.sampled_from([0.0, 1e-4, 0.3]),
           # zero detuning: r.normal() * 0.0 gives zeros of either sign
           df_scale=st.sampled_from([0.0, 10.0, 3e6]),
           amplitude=st.sampled_from([0.0, 3e-8, -1e-7]),
           decay=st.sampled_from([CoherenceDecay(),
                                  CoherenceDecay(t2=100e-6)]),
           final_phase=st.sampled_from([np.pi / 2, -np.pi / 2, 0.0, 0.3]),
           rows=st.sampled_from([0, 1, 2]),
           m_i_values=st.sampled_from([(1, 0, -1), (0,)]))
    def test_matches_su2_final_pulse(self, seed, dg_scale, df_scale,
                                     amplitude, decay, final_phase, rows,
                                     m_i_values):
        params = HamiltonianParams()
        r = np.random.default_rng(seed)
        dg = r.normal(size=33) * dg_scale
        df = r.normal(size=33) * df_scale
        phases = np.where(np.arange(33) % 2, -final_phase, final_phase)
        # a scalar phase, one row, or the (2, n) rows of both groups
        final = [final_phase, phases,
                 np.stack([np.full(33, final_phase), phases])][rows]
        kwargs = dict(field_amplitude=amplitude, decay=decay,
                      final_phase=final, m_i_values=m_i_values)
        got = echo_populations(PHASE_TIME, RABI, params, dg, df, **kwargs)
        want = echo_populations_per_evaluation(
            PHASE_TIME, RABI, params, dg, df, su2_final_pulse=True, **kwargs)
        npt.assert_array_equal(got, want)

    def test_zero_coupling_and_zero_detuning(self, params):
        # |b| = 0 in the m_I = 0 block, and signed zero errors
        dg = np.array([-1.0, 0.0, -0.0, 0.0, -1.0])
        df = np.array([0.0, 0.0, -0.0, -0.0, -0.0])
        for m_i_values in ((0,), (1, 0, -1)):
            for phase in (np.pi / 2, -np.pi / 2, 0.0):
                kwargs = dict(final_phase=phase, m_i_values=m_i_values)
                npt.assert_array_equal(
                    echo_populations(PHASE_TIME, RABI, params, dg, df,
                                     **kwargs),
                    echo_populations_per_evaluation(
                        PHASE_TIME, RABI, params, dg, df,
                        su2_final_pulse=True, **kwargs))


def bits(a):
    """The float64 bit patterns of ``a``, so that signed zeros differ."""
    return np.asarray(a, dtype=float).view(np.uint64)


class TestPhaseTable:
    """The final pulse's axis comes from one cosine and sine per entry of
    a phase table, gathered by ``phase_index``, and the first pulse on
    ``|0>`` is written out; the populations equal, bit for bit, those of
    every evaluation's own cosine and sine and of the first pulse through
    ``su2_apply``.  The float forms of ``final_phase`` go through the
    same table."""

    N = 37

    @staticmethod
    def evaluations(seed, dg_scale, df_scale, n):
        r = np.random.default_rng(seed)
        # r.normal() * 0.0 gives zeros of either sign
        return r.normal(size=n) * dg_scale, r.normal(size=n) * df_scale

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           dg_scale=st.sampled_from([0.0, 1e-4, 1e-2, 0.3]),
           df_scale=st.sampled_from([0.0, 10.0, 1e4, 3e6]),
           amplitude=st.one_of(st.sampled_from([0.0, 3e-8, -1e-7]),
                               st.floats(-1e-6, 1e-6)),
           decay=st.sampled_from([CoherenceDecay(), CoherenceDecay(t2=100e-6),
                                  CoherenceDecay(t2=70e-6, exponent=2.0)]),
           table=st.lists(st.one_of(
               st.sampled_from([np.pi / 2, -np.pi / 2, 0.7, -0.7, 0.0,
                                np.pi]),
               st.floats(-10.0, 10.0)), min_size=1, max_size=3),
           rows=st.sampled_from([None, 1, 2, 3]),
           m_i_values=st.lists(st.sampled_from([1, 0, -1]), min_size=1,
                               max_size=3, unique=True).map(tuple),
           data=st.data())
    def test_table_matches_per_evaluation_phases(
            self, seed, dg_scale, df_scale, amplitude, decay, table, rows,
            m_i_values, data):
        params = HamiltonianParams()
        dg, df = self.evaluations(seed, dg_scale, df_scale, self.N)
        # a 1-D index, or the (rows, n) index of one call per row group
        shape = (self.N,) if rows is None else (rows, self.N)
        index = np.asarray(data.draw(st.lists(
            st.integers(0, len(table) - 1), min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape))))).reshape(shape)
        kwargs = dict(field_amplitude=amplitude, decay=decay,
                      m_i_values=m_i_values)
        got = echo_populations(PHASE_TIME, RABI, params, dg, df,
                               final_phase=table, phase_index=index, **kwargs)
        want = echo_populations_per_evaluation(
            PHASE_TIME, RABI, params, dg, df,
            final_phase=np.asarray(table)[index], **kwargs)
        assert got.shape == shape
        npt.assert_array_equal(bits(got), bits(want))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           dg_scale=st.sampled_from([0.0, 1e-4, 0.3]),
           df_scale=st.sampled_from([0.0, 10.0, 3e6]),
           amplitude=st.sampled_from([0.0, 3e-8, -1e-7]),
           decay=st.sampled_from([CoherenceDecay(),
                                  CoherenceDecay(t2=100e-6)]),
           phase=st.one_of(st.sampled_from([np.pi / 2, 0.0, np.pi]),
                           st.floats(-10.0, 10.0)),
           form=st.sampled_from(["scalar", "row", "rows"]),
           m_i_values=st.lists(st.sampled_from([1, 0, -1]), min_size=1,
                               max_size=3, unique=True).map(tuple))
    def test_float_forms_match_per_evaluation_phases(
            self, seed, dg_scale, df_scale, amplitude, decay, phase, form,
            m_i_values):
        params = HamiltonianParams()
        dg, df = self.evaluations(seed, dg_scale, df_scale, self.N)
        alternating = np.where(np.arange(self.N) % 2, -phase, phase)
        final = {"scalar": phase, "row": alternating,
                 "rows": np.stack([np.full(self.N, phase), alternating,
                                   np.linspace(-phase, phase, self.N)])}[form]
        kwargs = dict(field_amplitude=amplitude, decay=decay,
                      final_phase=final, m_i_values=m_i_values)
        got = echo_populations(PHASE_TIME, RABI, params, dg, df, **kwargs)
        want = echo_populations_per_evaluation(PHASE_TIME, RABI, params, dg,
                                               df, **kwargs)
        assert got.shape == want.shape
        npt.assert_array_equal(bits(got), bits(want))

    def test_zero_coupling_and_signed_zero_errors(self, params):
        # |b| = 0 in the m_I = 0 block, and zeros of either sign in the
        # first pulse's amplitudes
        dg = np.array([-1.0, 0.0, -0.0, 0.0, -1.0, -0.0])
        df = np.array([0.0, 0.0, -0.0, -0.0, -0.0, 0.0])
        table = [np.pi / 2, -np.pi / 2, 0.0]
        index = np.array([[0, 1, 2, 0, 1, 2], [2, 2, 1, 1, 0, 0]])
        for m_i_values in ((0,), (1, 0, -1)):
            got = echo_populations(PHASE_TIME, RABI, params, dg, df,
                                   final_phase=table, phase_index=index,
                                   m_i_values=m_i_values)
            want = echo_populations_per_evaluation(
                PHASE_TIME, RABI, params, dg, df,
                final_phase=np.asarray(table)[index], m_i_values=m_i_values)
            npt.assert_array_equal(bits(got), bits(want))


class TestPulseErrorResponse:
    def test_zero_error_is_exactly_zero(self, params):
        dz = pulse_error_response(0.0, 0.0, phase_time=PHASE_TIME,
                                  rabi=RABI, params=params)
        assert dz[0] <= 1e-12

    def test_amplitude_error_scan_is_linear(self, params):
        dg = np.logspace(-4, -3, 6)
        dz = pulse_error_response(dg, 0.0, phase_time=PHASE_TIME,
                                  rabi=RABI, params=params)
        slope = np.polyfit(np.log10(dg), np.log10(dz), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_frequency_error_scan_is_linear(self, params):
        df = np.logspace(1, 2, 6)
        dz = pulse_error_response(0.0, df, phase_time=PHASE_TIME,
                                  rabi=RABI, params=params)
        slope = np.polyfit(np.log10(df), np.log10(dz), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_error_pairs_are_independent_evaluations(self, params):
        # the two error arguments pair up entry by entry
        dg, df = [1e-3, 0.0, 1e-2], [0.0, 1e3, 1e4]
        kwargs = dict(phase_time=PHASE_TIME, rabi=RABI, params=params)
        dz = pulse_error_response(dg, df, **kwargs)
        assert dz.shape == (3,) and np.all(dz >= 0)
        for k in range(3):
            assert dz[k] == pulse_error_response(dg[k], df[k], **kwargs)[0]

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
