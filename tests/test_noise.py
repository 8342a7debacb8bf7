import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from nvmag import noise
from nvmag.noise import (PsdModel, TabulatedPsd, NoiseTrace, synthesize_trace,
                         cumulative_rss_descending)
from nvmag.scenario import load_scenario

from conftest import SCENARIO_FILE
from reference_noise import (band_variance, estimate_psd,
                             fine_grid_covariance, full_fold_trace,
                             masked_density, value_at)


class TestPsdModel:
    def test_density_band_limits(self):
        m = PsdModel(white=2.0, f_min=1.0, f_max=100.0)
        f = np.array([0.5, 1.0, 10.0, 100.0, 200.0])
        npt.assert_allclose(m.density(f), [0.0, 2.0, 2.0, 2.0, 0.0])

    def test_flicker_density(self):
        m = PsdModel(flicker=((4.0, 1.0), (9.0, 2.0)))
        assert m.density(3.0) == pytest.approx(4.0 / 3 + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PsdModel(white=-1.0)
        with pytest.raises(ValueError):
            PsdModel(flicker=((1.0, 2.5),))
        with pytest.raises(ValueError):
            PsdModel(f_min=10.0, f_max=1.0)

    @settings(max_examples=100, deadline=None)
    @given(white=st.sampled_from([0.0, 2.0, 1e-13]),
           flicker=st.lists(st.tuples(
               st.one_of(st.just(0.0), st.floats(1e-12, 1e3)),
               st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                         st.floats(0.0, 2.0))), max_size=3),
           f_min=st.sampled_from([0.0, 1e-2, 1.0, 3.7]),
           width=st.one_of(st.just(math.inf), st.floats(1e-3, 1e5)),
           extra=st.lists(st.floats(-1e6, 1e6), max_size=8))
    def test_density_matches_masked_form(self, white, flicker, f_min, width,
                                         extra):
        # one mask of f <= 0 and the band, applied by copyto, against a
        # boolean assignment per flicker term and one for the band: the
        # same bits at f <= 0, on the band edges and their neighbours,
        # and in between
        m = PsdModel(white=white, flicker=tuple(flicker),
                     f_min=f_min, f_max=f_min + width)
        edges = [e for e in (m.f_min, m.f_max) if math.isfinite(e)]
        f = np.array([0.0, -0.0, -1.0, 5e-324, 1e-200, 0.5, 10.0, 1e4]
                     + [g for e in edges for g in (
                         e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
                     + extra)
        npt.assert_array_equal(m.density(f).view(np.uint64),
                               masked_density(m, f).view(np.uint64))
        for x in f[:3]:
            assert m.density(float(x)) == masked_density(m, float(x))

    def test_band_variance_matches_quadrature(self):
        m = PsdModel(white=0.3, flicker=((2.0, 1.0), (5.0, 0.7)))
        f = np.linspace(2.0, 300.0, 200_000)
        numeric = np.trapezoid(m.density(f), f)
        assert band_variance(m, 2.0, 300.0) == pytest.approx(numeric, rel=1e-6)

    def test_tabulated_psd(self):
        t = TabulatedPsd((1.0, 10.0, 100.0), (0.0, 4.0, 2.0))
        assert t.density(10.0) == pytest.approx(4.0)
        assert t.density(0.1) == 0.0
        assert t.density(1e4) == 0.0
        with pytest.raises(ValueError):
            TabulatedPsd((1.0, 1.0), (0.0, 1.0))


class TestSynthesis:
    def test_zero_psd_gives_zero_trace(self):
        m = PsdModel()
        tr = synthesize_trace(m, 1e-2, 1e-5, seed=1)
        assert np.all(tr.samples == 0.0)

    def test_white_variance_matches_band_integral(self):
        s0, dt, duration = 2.5, 0.5e-6, 0.5
        m = PsdModel(white=s0)
        tr = synthesize_trace(m, duration, dt, seed=42)
        assert tr.samples.size == 1_000_000
        expected = band_variance(m, 1.0 / duration, 1.0 / (2 * dt))
        assert tr.samples.var() == pytest.approx(expected, rel=0.05)

    def test_zero_mean(self):
        m = PsdModel(white=1.0)
        tr = synthesize_trace(m, 0.1, 1e-5, seed=3)
        assert abs(tr.samples.mean()) < 1e-10

    def test_deterministic_per_seed(self):
        m = PsdModel(white=1.0, flicker=((0.5, 1.0),))
        a = synthesize_trace(m, 1e-2, 1e-5, seed=7).samples
        b = synthesize_trace(m, 1e-2, 1e-5, seed=7).samples
        c = synthesize_trace(m, 1e-2, 1e-5, seed=8).samples
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_white_trace_is_uncorrelated(self):
        m = PsdModel(white=1.0)
        x, = synthesize_trace(m, 1.0, 1e-5, seed=11).samples
        n = x.size
        x = x - x.mean()
        var = x.var()
        for lag in (1, 2, 5, 10):
            rho = np.dot(x[:-lag], x[lag:]) / ((n - lag) * var)
            assert abs(rho) < 3.0 / np.sqrt(n)

    def test_round_trip_psd_within_ten_percent_per_octave(self):
        m = PsdModel(white=0.05, flicker=((1.0, 1.0),))
        fs, n_seg = 1e3, 512
        acc = None
        n_seeds = 100
        for seed in range(n_seeds):
            tr = synthesize_trace(m, 8.192, 1.0 / fs, seed=seed)
            f, pxx = estimate_psd(tr, n_seg)
            acc = pxx if acc is None else acc + pxx
        mean_psd = acc / n_seeds
        edges = 2.0 ** np.arange(1, 8)  # octaves from 2 Hz to 256 Hz
        for lo, hi in zip(edges[:-1], edges[1:]):
            band = (f >= lo) & (f < hi)
            est = mean_psd[band].mean()
            model = m.density(f[band]).mean()
            assert est == pytest.approx(model, rel=0.10)

    def test_window_centres_match_fine_grid_covariance(self):
        # reads at two offsets, window-averaged, carry the covariances of
        # the fine trace they are folded from: both variances, the cross
        # term within a sequence and the two one-sequence lags
        m = PsdModel(white=1e-13,
                     flicker=((1e-9, 1.0), (3e-10, 0.5)), f_min=1e-2,
                     f_max=5e4)
        t_seq, window, n, aliases = 160e-6, 10e-6, 256, 32
        a, b = 11, 29
        lags = (0, 0, b - a, aliases, aliases + a - b)
        moments = []
        for seed in range(600):
            x, y = synthesize_trace(m, n * t_seq, t_seq, seed,
                                    (a * window / 2, b * window / 2),
                                    window).samples
            x1 = np.roll(x, -1)
            moments.append([x @ x, y @ y, x @ y, x @ x1, x1 @ y])
        moments = np.array(moments) / n
        for k, lag in enumerate(lags):
            exact = fine_grid_covariance(m, n, t_seq, aliases, lag, window)
            error = moments[:, k].std() / np.sqrt(len(moments))
            assert abs(moments[:, k].mean() - exact) < 5 * error

    def test_two_reads_at_one_offset_are_one_process(self):
        # at lag 0 the cross-spectrum is the power itself, so both rows
        # are one realization: l11 is only the square root of the
        # rounding residue of P - |l10|^2, about 3e-8 of the row RMS,
        # where a fold without the cross term leaves sqrt(2) of it
        m = PsdModel(white=1e-13,
                     flicker=((1e-9, 1.0),), f_min=1e-2, f_max=5e4)
        for offset, window in ((55e-6, 10e-6), (0.0, 0.0)):
            x, y = synthesize_trace(m, 256 * 160e-6, 160e-6, 5,
                                    (offset, offset), window).samples
            assert np.max(np.abs(x - y)) < 1e-6 * np.sqrt(np.mean(x ** 2))

    @pytest.mark.parametrize("offsets", [(), (0.0, 1e-5, 2e-5)],
                             ids=["none", "three"])
    def test_rejects_other_read_counts(self, offsets):
        m = PsdModel(white=1.0)
        with pytest.raises(ValueError, match="one or two"):
            synthesize_trace(m, 1.0, 1e-3, seed=1, offsets=offsets)

    def test_rejects_bad_sampling(self):
        m = PsdModel(white=1.0)
        with pytest.raises(ValueError):
            synthesize_trace(m, 1.0, 0.0, seed=1)
        with pytest.raises(ValueError):
            synthesize_trace(m, 1e-5, 1e-5, seed=1)

    def test_value_at_lookup(self):
        tr = NoiseTrace(np.arange(10.0), dt=0.5)
        npt.assert_allclose(value_at(tr, [0.0, 0.6, 4.7]), [0.0, 1.0, 9.0])

    @pytest.mark.parametrize("t", [-0.3, 4.8, 100.0, np.nan])
    def test_value_at_outside_trace_raises(self, t):
        tr = NoiseTrace(np.arange(10.0), dt=0.5)
        with pytest.raises(ValueError, match="outside the trace"):
            value_at(tr, [1.0, t])

    # the transient is the white spectra (as large as the output), the
    # output and one block, so it falls toward 2x the output as n grows;
    # folding the whole spectrum at once peaked near 6.5x
    @pytest.mark.parametrize("channel", ["laser_intensity", "mw_amplitude"])
    def test_peak_memory_stays_near_the_output(self, channel):
        scenario = load_scenario(SCENARIO_FILE)
        cfg, s = scenario.readout, scenario.sequence
        if channel == "laser_intensity":
            offsets = (s.echo_time + cfg.window_time / 2.0,
                       s.echo_time + cfg.laser_time - cfg.window_time / 2.0)
            window = cfg.window_time
        else:
            offsets, window = (0.0,), 0.0
        n = 2**18
        tracemalloc.start()
        try:
            samples = synthesize_trace(
                scenario.noise[channel], n * s.sequence_time,
                s.sequence_time, 5, offsets, window).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.shape == (len(offsets), n)
        assert peak <= 2.5 * samples.nbytes


class TestBandLimitedFold:
    """The fold skips the aliases with no bin in the model's band, goes
    one block of bins at a time, and must give the full fold's samples
    bit for bit."""

    T_SEQ = 160e-6

    @staticmethod
    def bits(x):
        return np.ascontiguousarray(x).view(np.int64)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 40), aliases=st.integers(1, 12),
           windowed=st.booleans(), two=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_full_fold(self, data, n, aliases, windowed, two, seed):
        dt = self.T_SEQ
        if not windowed:
            aliases = 1
        window = 2.0 * dt / aliases if windowed else 0.0
        h = dt / aliases
        n_fine = n * aliases
        # the first and last bin of every alias block, by the expression
        # the fold uses: a band edge exactly on one of them, or just
        # beside it, decides whether that alias is folded
        k = np.arange(aliases)[:, None] * n + [0, n // 2]
        edges = (np.minimum(k, n_fine - k) * (1.0 / (n_fine * h))).ravel()
        edge = data.draw(st.sampled_from(sorted(set(edges.tolist()))))
        near = data.draw(st.sampled_from(
            [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]))
        top = 1.0 / (2.0 * h)
        free = st.floats(0.0, 1.2 * top)
        if data.draw(st.booleans(), label="tabulated"):
            freqs = sorted(set(data.draw(st.lists(free, min_size=1,
                                                  max_size=5)) + [near]))
            if len(freqs) < 2:
                freqs.append(freqs[0] + top)
            values = data.draw(st.lists(st.floats(0.0, 4.0),
                                        min_size=len(freqs),
                                        max_size=len(freqs)))
            model = TabulatedPsd(tuple(freqs),
                                 tuple(values))
        else:
            other = data.draw(st.one_of(free, st.just(math.inf)))
            lo, hi = sorted((near, other))
            if lo == hi:
                hi = math.inf
            model = PsdModel(white=1e-3,
                             flicker=((2e-2, 1.0),), f_min=lo, f_max=hi)
        if two:
            a, b = data.draw(st.tuples(st.integers(0, 2 * aliases),
                                       st.integers(0, 2 * aliases)))
            offsets = (a * h, b * h)
        else:
            offsets = (data.draw(st.integers(0, 2 * aliases)) * h,)
        want = full_fold_trace(model, n * dt, dt, seed, offsets, window)
        # small blocks put block edges inside the 2-21 bins of these traces
        for block in (1, 2, 5, 7, noise._BLOCK_BINS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(noise, "_BLOCK_BINS", block)
                got = synthesize_trace(model, n * dt, dt, seed, offsets,
                                       window).samples
            npt.assert_array_equal(self.bits(got), self.bits(want))

    def test_baseline_laser_channel_folds_only_its_band(self, monkeypatch):
        # f_max = 5e4 Hz = 8 / T_seq and 32 aliases of 10 us windows:
        # alias 8 starts on f_max (one ulp below it here), and aliases
        # 9-23 lie wholly above it
        model = PsdModel(white=1e-13,
                         flicker=((1e-9, 1.0),), f_min=1e-2, f_max=5e4)
        evaluated = []

        class Counting:
            band = model.band

            @staticmethod
            def density(f):
                evaluated.append(f.size)
                return model.density(f)

        n, window = 256, 10e-6
        offsets = (55e-6, 145e-6)
        bins = n // 2 + 1
        want = full_fold_trace(model, n * self.T_SEQ, self.T_SEQ, 3,
                               offsets, window)
        # one block of all 129 bins, then blocks of 50, 50 and 29
        for block in (noise._BLOCK_BINS, 50):
            monkeypatch.setattr(noise, "_BLOCK_BINS", block)
            evaluated.clear()
            got = synthesize_trace(Counting(), n * self.T_SEQ, self.T_SEQ, 3,
                                   offsets, window).samples
            npt.assert_array_equal(self.bits(got), self.bits(want))
            assert evaluated == [size for start in range(0, bins, block)
                                 for size in [min(block, bins - start)] * 17]


class TestEstimatePsd:
    def test_sinusoid_integrated_power(self):
        fs, f0, a = 1e4, 500.0, 0.8
        t = np.arange(200_000) / fs
        x = a * np.sin(2 * np.pi * f0 * t)
        f, pxx = estimate_psd(NoiseTrace(x, 1 / fs), 4096)
        assert np.trapezoid(pxx, f) == pytest.approx(a * a / 2, rel=0.05)
        assert abs(f[np.argmax(pxx)] - f0) < fs / 4096 * 2

    def test_white_input_is_flat(self, rng):
        x = rng.standard_normal(400_000)
        f, pxx = estimate_psd(NoiseTrace(x, 1e-4), 1024)
        level = 2 * 1e-4  # two-sided variance 1 spread over the band
        band = pxx[(f > 50) & (f < 4500)]
        assert band.mean() == pytest.approx(level, rel=0.05)

    def test_zero_input(self):
        f, pxx = estimate_psd(NoiseTrace(np.zeros(4096), 1e-3), 512)
        assert np.all(pxx == 0.0)

    @pytest.mark.parametrize("segment_length", [512, 511, 64, 7])
    def test_matches_scipy_welch(self, segment_length):
        # scipy is a test-only dependency: the package's numpy periodogram
        # must equal the textbook estimator it replaces.  The trace has a
        # non-zero mean, correlated samples and a trailing partial segment.
        from scipy import signal
        rng = np.random.default_rng(segment_length)
        n = 9 * segment_length + segment_length // 2 + 1
        x = 3.0 + np.cumsum(rng.standard_normal(n)) * 0.1
        f, pxx = estimate_psd(NoiseTrace(x, 2e-3), segment_length)
        f_ref, p_ref = signal.welch(x, fs=500.0, window="hann",
                                    nperseg=segment_length, noverlap=0,
                                    detrend="constant")
        npt.assert_array_equal(f, f_ref)
        assert np.max(np.abs(pxx - p_ref)) <= 1e-12 * p_ref.max()

    def test_needs_two_segments(self):
        with pytest.raises(ValueError):
            estimate_psd(NoiseTrace(np.zeros(600), 1e-3), 512)


class TestCumulative:
    def test_zero_width_band(self):
        f = np.linspace(1, 100, 50)
        curve = cumulative_rss_descending(f, np.ones_like(f), f[20])
        assert curve[20] == 0.0

    def test_white_closed_form(self):
        # the top of the band falls between grid points
        f = np.linspace(1, 1000, 1999)
        s0, f_high = 3.0, 250.3
        curve = cumulative_rss_descending(f, np.full_like(f, s0), f_high)
        below = f <= f_high
        npt.assert_allclose(curve[below], np.sqrt(s0 * (f_high - f[below])),
                            rtol=1e-12)
        assert np.all(curve[~below] == 0.0)

    def test_monotone_in_lower_frequency(self):
        f = np.logspace(0, 4, 300)
        curve = cumulative_rss_descending(f, 1.0 / f, f[-1])
        assert np.all(np.diff(curve) <= 0)

    def test_descending_direction(self):
        f = np.linspace(1, 100, 500)
        s0 = 2.0
        curve = cumulative_rss_descending(f, np.full_like(f, s0), 100.0)
        npt.assert_allclose(curve, np.sqrt(s0 * (100.0 - f)), rtol=1e-9,
                            atol=1e-12)
        assert np.all(np.diff(curve) <= 1e-12)
