import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from nvmag.filters import (check_windows, filter_transmission,
                           filter_scheme_for_channel,
                           filtered_cumulative_noise_descending)
from reference_filters import (IntegrationWindow, window_for_signal,
                               filter_transmission_numeric)

T_L = 100e-6
D_T = 10e-6
T_SEQ = 160e-6


def net_area(window) -> float:
    """Signed area of a window: its transmission at zero frequency."""
    return sum(w * (e - s) for s, e, w in window.segments)


def transmission(scheme, omega, t_l=T_L, d_t=D_T, t_seq=T_SEQ):
    return filter_transmission(scheme, omega, t_l, d_t, t_seq)


class TestWindows:
    """The segment-list reference model the closed forms are checked
    against."""

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
        for args in ((T_L, T_L, T_SEQ),       # window = pulse
                     (T_L, 60e-6, T_SEQ),     # windows overlap
                     (T_L, D_T, 50e-6),       # pulse > sequence
                     (T_L, 1e-300, T_SEQ),    # window lost next to T_seq
                     (T_L, D_T, 1e300),       # window lost next to T_seq
                     (T_L, math.nan, T_SEQ)):
            with pytest.raises(ValueError):
                window_for_signal("D", *args)
            with pytest.raises(ValueError):
                check_windows(*args)
        with pytest.raises(ValueError):
            window_for_signal("E", T_L, D_T, T_SEQ)
        with pytest.raises(ValueError):
            filter_transmission("E", 1.0, T_L, D_T, T_SEQ)

    def test_window_invariants(self):
        with pytest.raises(ValueError):
            IntegrationWindow(((0.0, 1.0, 1.0), (0.5, 2.0, -1.0)), 1.0)
        with pytest.raises(ValueError):
            IntegrationWindow(((0.0, 1.0, 0.5),), 1.0)


def _reference_builds(laser_time, window_time, sequence_time) -> bool:
    try:
        for scheme in "ABCD":
            window_for_signal(scheme, laser_time, window_time, sequence_time)
    except ValueError:
        return False
    return True


def _check_passes(laser_time, window_time, sequence_time) -> bool:
    try:
        check_windows(laser_time, window_time, sequence_time)
    except ValueError:
        return False
    return True


@st.composite
def timings(draw, smallest):
    """``(laser, window, sequence)`` triples concentrated on the edges:
    windows at and one ulp around half the pulse, sequences at and one
    ulp around the pulse length, and free values over the whole range."""
    span = st.floats(smallest, 1e300)
    t_l = draw(span)
    half = t_l / 2
    d_t = draw(st.one_of(
        span, st.floats(0.0, 0.6).map(lambda u: u * t_l),
        st.sampled_from([half, math.nextafter(half, 0.0),
                         math.nextafter(half, math.inf), t_l])))
    t_seq = draw(st.one_of(
        span, st.floats(1.0, 1e20).map(lambda u: u * t_l),
        st.sampled_from([t_l, math.nextafter(t_l, 0.0),
                         math.nextafter(t_l, math.inf)])))
    return t_l, d_t, t_seq


class TestCheckWindows:
    @settings(max_examples=500, deadline=None)
    @given(timings(1e-300))
    def test_accepts_exactly_when_reference_windows_build(self, triple):
        assert _check_passes(*triple) == _reference_builds(*triple)

    @settings(max_examples=500, deadline=None)
    @given(timings(5e-324))
    def test_never_accepts_what_reference_rejects(self, triple):
        # with subnormal windows, half a pulse rounds and the reference's
        # 1e-15 s overlap tolerance admits start and end windows that
        # overlap by an ulp; the chained comparison rejects those
        if _check_passes(*triple):
            assert _reference_builds(*triple)


class TestTransmission:
    def test_dc_limits(self):
        assert transmission("A", 0.0) == D_T
        for scheme in "BCD":
            assert transmission(scheme, 0.0) == 0.0

    def test_doubly_referenced_rolls_off_faster(self):
        omega = 2 * np.pi * np.array([0.1, 1.0, 10.0])
        ratio = transmission("D", omega) / transmission("B", omega)
        # the extra referencing contributes a factor ~ omega * T_seq
        npt.assert_allclose(ratio, omega * T_SEQ, rtol=1e-3)

    def test_low_frequency_ordering_of_references(self):
        omega = np.linspace(1e-3, 2 * np.pi / (100 * T_SEQ), 64)
        assert np.all(transmission("D", omega) < transmission("B", omega))

    def test_closed_form_matches_numeric_everywhere(self):
        omega = 2 * np.pi * np.logspace(0, 6, 1000)
        for scheme in "ABCD":
            num = filter_transmission_numeric(
                window_for_signal(scheme, T_L, D_T, T_SEQ), omega)
            an = transmission(scheme, omega)
            peak = an.max()
            assert np.all(np.abs(num - an)
                          <= np.maximum(1e-9 * an, 1e-15 * peak)), scheme

    def test_closed_form_equals_literal_cosine_bracket(self):
        # the factored evaluation is the literal bracket, checked where
        # direct cosine summation is well conditioned
        omega = 2 * np.pi * np.logspace(3, 6, 500)
        bracket = (2 - 2 * np.cos(omega * D_T)
                   + np.cos(omega * (T_L - 2 * D_T)) + np.cos(omega * T_L)
                   - 2 * np.cos(omega * (T_L - D_T)))
        literal = np.sqrt(np.abs(2.0 / omega**2 * bracket))
        an = transmission("B", omega)
        peak = an.max()
        assert np.all(np.abs(literal - an) <= np.maximum(1e-6 * an,
                                                         1e-9 * peak))

    def test_degenerate_window_finite_and_consistent(self):
        omega = 2 * np.pi * np.logspace(0, 6, 400)
        w = window_for_signal("B", T_L, T_L / 2, T_SEQ)
        num = filter_transmission_numeric(w, omega)
        an = transmission("B", omega, d_t=T_L / 2)
        assert np.all(np.isfinite(an))
        peak = an.max()
        assert np.all(np.abs(num - an) <= np.maximum(1e-9 * an, 1e-15 * peak))

    def test_nonnegative_and_even(self):
        omega = 2 * np.pi * np.logspace(-1, 6, 200)
        for scheme in "ABCD":
            x = transmission(scheme, omega)
            assert np.all(x >= 0)
            # |FT of a real window| is even in the frequency
            npt.assert_array_equal(transmission(scheme, -omega), x)


class TestChannelMapping:
    def test_optical_noise_sees_own_scheme(self):
        for scheme in "ABCD":
            assert filter_scheme_for_channel(scheme, "laser_intensity") == scheme

    def test_microwave_noise_unreferenced_within_sequence(self):
        assert filter_scheme_for_channel("B", "mw_amplitude") == "A"
        assert filter_scheme_for_channel("D", "mw_amplitude") == "C"
        assert filter_scheme_for_channel("D", "mw_frequency") == "C"
        assert filter_scheme_for_channel("A", "mw_frequency") == "A"


def filtered(scheme, f, density):
    return filtered_cumulative_noise_descending(f, density, scheme, T_L, D_T,
                                                T_SEQ, f[-1])


class TestFilteredBudget:
    def test_zero_psd_gives_zero_curve(self):
        f = np.logspace(-1, 3.8, 500)
        assert np.all(filtered("B", f, np.zeros_like(f)) == 0.0)

    def test_white_psd_scheme_ordering_at_low_frequency(self):
        # integrated down from a band top well below 1/T_seq, where every
        # referencing step suppresses more
        f = np.logspace(-2, np.log10(1.0 / (10 * T_SEQ)), 400)
        curves = {scheme: filtered(scheme, f, np.ones_like(f))
                  for scheme in "ABD"}
        sl = slice(None, -1)  # the top point integrates nothing
        assert np.all(curves["D"][sl] <= curves["B"][sl])
        assert np.all(curves["B"][sl] <= curves["A"][sl])

    def test_flicker_under_double_referencing_converges(self):
        totals = []
        for f_low in (1e-3, 1e-5, 1e-7):
            decades = np.log10(1 / T_SEQ) - np.log10(f_low)
            f = np.logspace(np.log10(f_low), np.log10(1 / T_SEQ),
                            int(600 * decades))
            totals.append(filtered("D", f, 1.0 / f)[0])
        # extending the band to lower frequency adds nothing appreciable
        assert totals[1] == pytest.approx(totals[0], rel=1e-3)
        assert totals[2] == pytest.approx(totals[1], rel=1e-5)
