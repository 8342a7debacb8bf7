import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nvmag.analysis import (ScalingCurve, allan_deviation, block_means,
                            std_vs_time, projection_limit_eq2,
                            projection_limit_simplified, optimal_phase_time,
                            default_time_grid)

from reference_analysis import fit_log_slope

GAMMA_RAD = 2 * np.pi * 28.7e9


def allan_oracle(samples, t_prime, taus):
    """Independently coded block-mean two-sample deviation."""
    samples = np.asarray(samples, dtype=float)
    out = []
    for tau in np.atleast_1d(taus):
        m = int(round(tau / t_prime))
        assert abs(tau / t_prime - m) < 1e-9
        means = []
        i = 0
        while (i + 1) * m <= samples.size:
            means.append(np.mean(samples[i * m:(i + 1) * m]))
            i += 1
        diffs = np.empty(len(means) - 1)
        for k in range(len(means) - 1):
            diffs[k] = means[k + 1] - means[k]
        out.append(np.sqrt(0.5 * np.mean(diffs * diffs)))
    return np.asarray(out)


#: signed zeros, NaN, +-inf, subnormals and values that overflow a sum
SPECIAL_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -5e-324, 2.2e-308, 1e308, -1e308]),
)
#: signed zeros and subnormals alone, so that rows of -0.0 come up
TINY_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 12), data=st.data())
def test_block_means_bits_equal_the_row_mean(m, data):
    # short blocks are summed column by column; every block length gives
    # the bits of the reshape mean, lengths not a multiple of m included
    n = data.draw(st.integers(0, 6 * m + m - 1))
    elements = data.draw(st.sampled_from([SPECIAL_FLOATS, TINY_FLOATS]))
    samples = data.draw(hnp.arrays(np.float64, n, elements=elements))
    blocks = n // m
    with np.errstate(all="ignore"):
        want = samples[:blocks * m].reshape(blocks, m).mean(axis=1)
        got = block_means(samples, m)
    assert got.shape == want.shape
    # an add of two NaNs returns one of them, and numpy's own row and
    # column loops pick differently (a one-row reshape mean and a
    # many-row one of the same row disagree), so a NaN's sign and
    # payload are not compared
    nan = np.isnan(want)
    npt.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].view(np.uint64).tolist() == \
        want[~nan].view(np.uint64).tolist()


class TestAllan:
    def test_constant_series_is_zero(self):
        curve = allan_deviation(np.full(100, 3.7), 1.0, [1.0, 2.0, 10.0])
        npt.assert_array_equal(curve.values, 0.0)

    def test_alternating_series_exact(self):
        samples = np.where(np.arange(1000) % 2 == 0, 1.0, -1.0)
        curve = allan_deviation(samples, 1.0, [1.0])
        assert curve.values[0] == np.sqrt(2.0)
        a = 0.83
        curve = allan_deviation(a * samples, 1.0, [1.0])
        assert curve.values[0] == pytest.approx(a * np.sqrt(2.0), rel=1e-15)

    def test_white_noise_slope(self, rng):
        samples = rng.standard_normal(1_000_000)
        taus = np.unique(np.round(np.logspace(0, 3, 20)))
        curve = allan_deviation(samples, 1.0, taus)
        slope, _ = fit_log_slope(curve, 1.0, 1e3)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_matches_independent_oracle_bitwise(self, rng):
        samples = rng.standard_normal(10_000)
        taus = [1.0, 2.0, 5.0, 10.0, 40.0, 125.0, 2000.0]
        got = allan_deviation(samples, 1.0, taus).values
        expected = allan_oracle(samples, 1.0, taus)
        npt.assert_array_equal(got, expected)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            allan_deviation(np.zeros(100), 1.0, [1.5])
        with pytest.raises(ValueError):
            allan_deviation(np.zeros(100), 1.0, [100.0])  # single block

    def test_trailing_partial_block_dropped(self):
        samples = np.array([1.0, 1.0, 2.0, 2.0, 99.0])
        curve = allan_deviation(samples, 1.0, [2.0])
        assert curve.values[0] == pytest.approx(np.sqrt(0.5))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, seed, scale):
        r = np.random.default_rng(seed)
        samples = r.standard_normal(256)
        base = allan_deviation(samples, 1.0, [1.0, 4.0, 16.0]).values
        scaled = allan_deviation(scale * samples, 1.0, [1.0, 4.0, 16.0]).values
        npt.assert_allclose(scaled, scale * base, rtol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), offset=st.floats(-1e3, 1e3))
    def test_offset_invariance(self, seed, offset):
        r = np.random.default_rng(seed)
        samples = r.standard_normal(256)
        base = allan_deviation(samples, 1.0, [1.0, 4.0, 16.0]).values
        shifted = allan_deviation(samples + offset, 1.0, [1.0, 4.0, 16.0]).values
        npt.assert_allclose(shifted, base, rtol=1e-6, atol=1e-9)


class TestStdVsTime:
    def test_white_noise_slope(self, rng):
        samples = rng.standard_normal(200_000)
        times = np.unique(np.round(np.logspace(0, 3, 16)))
        curve = std_vs_time(samples, 1.0, times)
        slope, _ = fit_log_slope(curve, 1.0, 1e3)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_constant_is_zero(self):
        curve = std_vs_time(np.full(64, 2.5), 1.0, [1.0, 4.0])
        npt.assert_array_equal(curve.values, 0.0)

    def test_drift_dominates_at_long_times(self, rng):
        # white noise plus a strong linear ramp: block means separate and
        # the curve stops averaging down
        n = 100_000
        samples = rng.standard_normal(n) + 1e-3 * np.arange(n)
        times = np.unique(np.round(np.logspace(0, np.log10(n / 8), 16)))
        curve = std_vs_time(samples, 1.0, times)
        slope, _ = fit_log_slope(curve, times[-1] / 10, times[-1])
        assert slope > -0.1
        white_only = 1.0 / np.sqrt(times[-1])
        assert curve.values[-1] > 10 * white_only

    def test_estimator_tag_and_grid(self, rng):
        samples = rng.standard_normal(1000)
        curve = std_vs_time(samples, 0.5, [0.5, 1.0, 2.0])
        npt.assert_allclose(curve.times, [0.5, 1.0, 2.0])


class TestSensitivityClosedForms:
    def test_projection_limit_reference_point(self):
        got = projection_limit_eq2(1.4e11, 1.0 / 160e-6, 50e-6,
                                   math.exp(-0.5), 28.7e9)
        expected = 1.0 / (GAMMA_RAD * np.sqrt(1.4e11) * np.sqrt(1 / 160e-6)
                          * 50e-6 * np.exp(-0.5))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(6.2e-15, rel=0.01)

    def test_projection_limit_scales_with_ensemble_size(self):
        a, b = (projection_limit_eq2(n, 6250.0, 50e-6, 1.0, 28.7e9)
                for n in (1e11, 4e11))
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_simplified_form_coefficient(self):
        coeff = projection_limit_simplified(1.0, 1.0, 1.0)
        assert coeff == pytest.approx(np.sqrt(2 * np.e) / GAMMA_RAD, rel=1e-12)
        assert coeff == pytest.approx(1.3e-11, rel=0.01)

    def test_internal_consistency_at_optimum(self):
        # back-to-back limit, exponential decay, optimal phase time
        t2, n, t = 100e-6, 1.4e11, 1.0
        t_phi = optimal_phase_time(t2)
        got = projection_limit_eq2(n, t / t_phi, t_phi, math.exp(-t_phi / t2),
                                   28.7e9)
        assert got == pytest.approx(projection_limit_simplified(n, t, t2),
                                    rel=1e-12)


class TestOptimalPhaseTime:
    def test_exponential_decay_gives_half_t2(self):
        assert optimal_phase_time(2e-3) == 1e-3
        assert optimal_phase_time(100e-6) == 50e-6

    def test_stationarity_at_half_t2(self):
        # numerical derivative of exp(T/t2)/sqrt(T) changes sign at t2/2
        t2 = 1.0

        def objective(t):
            return math.exp(t / t2) / math.sqrt(t)

        eps = 1e-7
        left = objective(0.5 - eps)
        right = objective(0.5 + eps)
        centre = objective(0.5)
        assert centre < left and centre < right

    @pytest.mark.parametrize("exponent", [0.5, 0.8, 1.5, 2.0, 3.0])
    def test_general_exponent_against_grid_oracle(self, exponent):
        t2 = 2e-3
        got = optimal_phase_time(t2, exponent)
        # brute-force grid minimization, iteratively refined; the optimum
        # sits below t2 for every exponent tested
        lo, hi = t2 * 1e-3, t2 * 5.0
        for _ in range(4):
            grid = np.linspace(lo, hi, 10_000)
            obj = np.exp((grid / t2) ** exponent) / np.sqrt(grid)
            k = int(np.argmin(obj))
            lo, hi = grid[max(k - 2, 0)], grid[min(k + 2, grid.size - 1)]
        oracle = grid[k]
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_phase_time(-1.0)
        with pytest.raises(ValueError):
            optimal_phase_time(1.0, decay_exponent=0.0)


class TestFitLogSlope:
    def test_exact_power_law(self):
        t = np.logspace(0, 3, 40)
        curve = ScalingCurve(t, 2.5 * t ** -0.75)
        slope, intercept = fit_log_slope(curve, 1.0, 1e3)
        assert slope == pytest.approx(-0.75, abs=1e-10)
        assert 10 ** intercept == pytest.approx(2.5, rel=1e-9)

    def test_constant_curve(self):
        t = np.logspace(0, 2, 10)
        curve = ScalingCurve(t, np.full(10, 4.0))
        slope, _ = fit_log_slope(curve, 1.0, 100.0)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_values(self):
        t = np.logspace(0, 2, 10)
        curve = ScalingCurve(t, np.zeros(10))
        with pytest.raises(ValueError):
            fit_log_slope(curve, 1.0, 100.0)

    def test_needs_three_points(self):
        t = np.array([1.0, 2.0])
        curve = ScalingCurve(t, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_log_slope(curve, 1.0, 2.0)


class TestTimeGrid:
    def test_grid_block_counts(self):
        grid = default_time_grid(1000, 0.5, min_blocks=4)
        assert grid[0] == 0.5
        assert grid[-1] <= 0.5 * (1000 // 4)
        assert np.all(np.diff(grid) > 0)
