import numpy as np
import numpy.testing as npt
import pytest

from nvmag.filters import (IntegrationWindow, window_for_signal,
                           filter_transmission_numeric,
                           filter_transmission_analytic_b,
                           filter_scheme_for_channel,
                           filtered_cumulative_noise_descending)

T_L = 100e-6
D_T = 10e-6
T_SEQ = 160e-6


def net_area(window) -> float:
    """Signed area of a window: its transmission at zero frequency."""
    return sum(w * (e - s) for s, e, w in window.segments)


class TestWindows:
    def test_scheme_a(self):
        w = window_for_signal("A", T_L, D_T, T_SEQ)
        assert w.segments == ((0.0, D_T, 1.0),)
        assert w.gain == D_T

    def test_scheme_b_segments(self):
        w = window_for_signal("B", T_L, D_T, T_SEQ)
        npt.assert_allclose(w.segments, ((0.0, 1e-5, 1.0),
                                         (9e-5, 1e-4, -1.0)))
        assert net_area(w) == pytest.approx(0.0, abs=1e-18)

    def test_scheme_c_shifted_pair(self):
        w = window_for_signal("C", T_L, D_T, T_SEQ)
        npt.assert_allclose(w.segments, ((0.0, 1e-5, 1.0),
                                         (T_SEQ, T_SEQ + 1e-5, -1.0)))

    def test_scheme_d_four_segments_span(self):
        w = window_for_signal("D", T_L, D_T, T_SEQ)
        assert len(w.segments) == 4
        span = max(end for _, end, _ in w.segments)
        assert span == pytest.approx(T_SEQ + T_L)
        assert span <= 2 * T_SEQ
        weights = [s[2] for s in w.segments]
        assert weights == [1.0, -1.0, -1.0, 1.0]
        assert net_area(w) == pytest.approx(0.0, abs=1e-18)

    def test_rejects_bad_timings(self):
        with pytest.raises(ValueError):
            window_for_signal("B", T_L, T_L, T_SEQ)       # window = pulse
        with pytest.raises(ValueError):
            window_for_signal("B", T_L, 60e-6, T_SEQ)     # windows overlap
        with pytest.raises(ValueError):
            window_for_signal("A", T_L, D_T, 50e-6)       # pulse > sequence
        with pytest.raises(ValueError):
            window_for_signal("E", T_L, D_T, T_SEQ)

    def test_window_invariants(self):
        with pytest.raises(ValueError):
            IntegrationWindow(((0.0, 1.0, 1.0), (0.5, 2.0, -1.0)), 1.0)
        with pytest.raises(ValueError):
            IntegrationWindow(((0.0, 1.0, 0.5),), 1.0)


class TestTransmission:
    def test_dc_limits(self):
        w_a = window_for_signal("A", T_L, D_T, T_SEQ)
        w_b = window_for_signal("B", T_L, D_T, T_SEQ)
        w_d = window_for_signal("D", T_L, D_T, T_SEQ)
        assert filter_transmission_numeric(w_a, 0.0) == pytest.approx(D_T)
        assert filter_transmission_numeric(w_b, 0.0) == pytest.approx(0.0,
                                                                      abs=1e-18)
        assert filter_transmission_numeric(w_d, 0.0) == pytest.approx(0.0,
                                                                      abs=1e-18)

    def test_doubly_referenced_rolls_off_faster(self):
        w_b = window_for_signal("B", T_L, D_T, T_SEQ)
        w_d = window_for_signal("D", T_L, D_T, T_SEQ)
        omega = 2 * np.pi * np.array([0.1, 1.0, 10.0])
        x_b = filter_transmission_numeric(w_b, omega)
        x_d = filter_transmission_numeric(w_d, omega)
        ratio = x_d / x_b
        # the extra referencing contributes a factor ~ omega * T_seq
        npt.assert_allclose(ratio, omega * T_SEQ, rtol=1e-3)

    def test_low_frequency_ordering_of_references(self):
        w_b = window_for_signal("B", T_L, D_T, T_SEQ)
        w_d = window_for_signal("D", T_L, D_T, T_SEQ)
        omega = np.linspace(1e-3, 2 * np.pi / (100 * T_SEQ), 64)
        x_b = filter_transmission_numeric(w_b, omega)
        x_d = filter_transmission_numeric(w_d, omega)
        assert np.all(x_d < x_b)

    def test_closed_form_matches_numeric_everywhere(self):
        w_b = window_for_signal("B", T_L, D_T, T_SEQ)
        omega = 2 * np.pi * np.logspace(0, 6, 1000)
        num = filter_transmission_numeric(w_b, omega)
        an = filter_transmission_analytic_b(omega, T_L, D_T)
        peak = an.max()
        assert np.all(np.abs(num - an) <= np.maximum(1e-9 * an, 1e-15 * peak))

    def test_closed_form_equals_literal_cosine_bracket(self):
        # the factored evaluation is the literal bracket, checked where
        # direct cosine summation is well conditioned
        omega = 2 * np.pi * np.logspace(3, 6, 500)
        bracket = (2 - 2 * np.cos(omega * D_T)
                   + np.cos(omega * (T_L - 2 * D_T)) + np.cos(omega * T_L)
                   - 2 * np.cos(omega * (T_L - D_T)))
        literal = np.sqrt(np.abs(2.0 / omega**2 * bracket))
        an = filter_transmission_analytic_b(omega, T_L, D_T)
        peak = an.max()
        assert np.all(np.abs(literal - an) <= np.maximum(1e-6 * an,
                                                         1e-9 * peak))

    def test_degenerate_window_finite_and_consistent(self):
        omega = 2 * np.pi * np.logspace(0, 6, 400)
        w = window_for_signal("B", T_L, T_L / 2, T_SEQ)
        num = filter_transmission_numeric(w, omega)
        an = filter_transmission_analytic_b(omega, T_L, T_L / 2)
        assert np.all(np.isfinite(an))
        peak = an.max()
        assert np.all(np.abs(num - an) <= np.maximum(1e-9 * an, 1e-15 * peak))

    def test_nonnegative_and_even(self):
        w_b = window_for_signal("B", T_L, D_T, T_SEQ)
        omega = 2 * np.pi * np.logspace(-1, 6, 200)
        x = filter_transmission_numeric(w_b, omega)
        assert np.all(x >= 0)
        # |FT of a real window| is even: negative frequencies are the same
        with pytest.raises(ValueError):
            filter_transmission_numeric(w_b, -omega)

    def test_analytic_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            filter_transmission_analytic_b(0.0, T_L, D_T)


class TestChannelMapping:
    def test_optical_noise_sees_own_scheme(self):
        for scheme in "ABCD":
            assert filter_scheme_for_channel(scheme, "laser_intensity") == scheme

    def test_microwave_noise_unreferenced_within_sequence(self):
        assert filter_scheme_for_channel("B", "mw_amplitude") == "A"
        assert filter_scheme_for_channel("D", "mw_amplitude") == "C"
        assert filter_scheme_for_channel("D", "mw_frequency") == "C"
        assert filter_scheme_for_channel("A", "mw_frequency") == "A"


class TestFilteredBudget:
    def test_zero_psd_gives_zero_curve(self):
        w = window_for_signal("B", T_L, D_T, T_SEQ)
        f = np.logspace(-1, 3.8, 500)
        curve = filtered_cumulative_noise_descending(f, np.zeros_like(f), w,
                                                     f[-1])
        assert np.all(curve == 0.0)

    def test_white_psd_scheme_ordering_at_low_frequency(self):
        # integrated down from a band top well below 1/T_seq, where every
        # referencing step suppresses more
        f = np.logspace(-2, np.log10(1.0 / (10 * T_SEQ)), 400)
        dens = np.ones_like(f)
        curves = {}
        for scheme in "ABD":
            w = window_for_signal(scheme, T_L, D_T, T_SEQ)
            curves[scheme] = filtered_cumulative_noise_descending(f, dens, w,
                                                                  f[-1])
        sl = slice(None, -1)  # the top point integrates nothing
        assert np.all(curves["D"][sl] <= curves["B"][sl])
        assert np.all(curves["B"][sl] <= curves["A"][sl])

    def test_flicker_under_double_referencing_converges(self):
        w = window_for_signal("D", T_L, D_T, T_SEQ)
        totals = []
        for f_low in (1e-3, 1e-5, 1e-7):
            decades = np.log10(1 / T_SEQ) - np.log10(f_low)
            f = np.logspace(np.log10(f_low), np.log10(1 / T_SEQ),
                            int(600 * decades))
            curve = filtered_cumulative_noise_descending(f, 1.0 / f, w, f[-1])
            totals.append(curve[0])
        # extending the band to lower frequency adds nothing appreciable
        assert totals[1] == pytest.approx(totals[0], rel=1e-3)
        assert totals[2] == pytest.approx(totals[1], rel=1e-5)
