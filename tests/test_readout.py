import numpy as np
import numpy.testing as npt
import pytest

from nvmag import sequences as sq
from nvmag.readout import (ReadoutConfig, sequence_signals, pair_difference,
                           expected_window_counts, poisson_counts,
                           signal_response_per_tesla, window_dip_fraction)
from reference_readout import (ReadoutRecord, bin_centres, bin_count,
                               difference_detector, extract_signal,
                               fluorescence_expectation, sample_counts,
                               simulate_record)

BIN = 1e-6  # bin width of the per-bin reference records
T_SEQ = 160e-6  # sequence spacing of the sampled series


def window_centres(cfg, echo_time=50.2e-6):
    """Centres of the two integration windows within a sequence, for a
    laser pulse that starts when the echo ends."""
    return (echo_time + cfg.window_time / 2,
            echo_time + cfg.laser_time - cfg.window_time / 2)


def small_cfg(**kw):
    defaults = dict(photon_rate=1e9, contrast=0.04, repolarization_time=1e-6,
                    laser_time=100e-6, window_time=10e-6)
    defaults.update(kw)
    return ReadoutConfig(**defaults)


class TestFluorescence:
    def test_bright_state_has_no_dip(self):
        cfg = small_cfg()
        t = np.linspace(0, 100e-6, 50)
        npt.assert_allclose(fluorescence_expectation(1.0, cfg, t),
                            cfg.photon_rate)

    def test_repolarization_restores_steady_state(self):
        cfg = small_cfg()
        rate = fluorescence_expectation(0.0, cfg, 50e-6)
        assert rate == pytest.approx(cfg.photon_rate, rel=1e-12)

    def test_zero_contrast_is_spin_independent(self):
        cfg = small_cfg(contrast=1e-12)
        r0 = fluorescence_expectation(0.0, cfg, 0.0)
        r1 = fluorescence_expectation(1.0, cfg, 0.0)
        assert r0 == pytest.approx(r1, rel=1e-11)

    def test_initial_dip_magnitude(self):
        cfg = small_cfg()
        rate = fluorescence_expectation(0.0, cfg, 0.0)
        assert rate == pytest.approx(cfg.photon_rate * (1 - cfg.contrast))

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            fluorescence_expectation(1.5, small_cfg(), 0.0)

    def test_window_mean_matches_quadrature(self):
        # independent check of the closed-form window integrals
        cfg = small_cfg()
        t = np.linspace(0, cfg.window_time, 500_001)
        mean_rate = np.trapezoid(fluorescence_expectation(0.2, cfg, t),
                                 t) / cfg.window_time
        got = expected_window_counts(0.2, cfg, 0) / cfg.window_time
        assert got == pytest.approx(mean_rate, rel=1e-9)

    @pytest.mark.parametrize("tau, first, last", [
        (1e300, 1.0, 1.0),         # no repolarization within the pulse
        (1e-300, 1e-295, 0.0),     # instant repolarization: tau / window
        (1e-6, 0.09999546000702374, 8.193640616392798e-41),  # baseline
    ])
    def test_dip_fraction_extremes(self, tau, first, last):
        # the mean of exp(-t/tau) over each window, which a difference of
        # two exponentials would cancel to 0 for a slow repolarization
        cfg = small_cfg(repolarization_time=tau)
        assert window_dip_fraction(cfg, 0) == pytest.approx(first, rel=1e-15)
        assert window_dip_fraction(cfg, 1) == pytest.approx(last, rel=1e-15)

    def test_referenced_schemes_respond_through_window_difference(self):
        cfg = small_cfg(repolarization_time=30e-6)
        d0, d1 = (window_dip_fraction(cfg, k) for k in (0, 1))
        response = {s: signal_response_per_tesla(cfg, 50e-6, 28.7e9, 1.0, s)
                    for s in "ABCD"}
        assert response["A"] == pytest.approx(
            cfg.contrast * d0 * 0.5 * 4 * 28.7e9 * 50e-6, rel=1e-15)
        assert response["B"] / response["A"] == pytest.approx(
            (d0 - d1) / d0, rel=1e-14)
        assert response["C"] == 2 * response["A"]
        assert response["D"] == 2 * response["B"]


class TestSampling:
    def test_poisson_mean(self, rng):
        rate, bins, width = 2e6, 100_000, 1e-6
        counts = sample_counts(np.full(bins, rate), None, width, rng)
        lam = rate * width
        assert counts.mean() == pytest.approx(lam, abs=3 * np.sqrt(lam / bins))

    def test_poisson_variance_over_mean(self, rng):
        rate, bins, width = 5e6, 100_000, 1e-6
        counts = sample_counts(np.full(bins, rate), None, width, rng)
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_rate(self, rng):
        counts = sample_counts(np.zeros(100), None, 1e-6, rng)
        assert np.all(counts == 0)

    def test_negative_modulation_clips_with_warning(self):
        with pytest.warns(RuntimeWarning):
            counts = sample_counts(np.full(10, 1e6), np.full(10, -1.5), 1e-6, 1)
        assert np.all(counts == 0)

    def test_deterministic_per_seed(self):
        a = sample_counts(np.full(100, 1e6), None, 1e-6, 11)
        b = sample_counts(np.full(100, 1e6), None, 1e-6, 11)
        npt.assert_array_equal(a, b)


    def test_gaussian_limit_counts_do_not_wrap(self, rng):
        # far beyond the int64 range the Gaussian limit still returns the
        # mean to float precision, not a wrapped-around integer
        counts = poisson_counts(rng, [1e30, 1e13, 5.0])
        assert counts[0] == pytest.approx(1e30, rel=1e-12)
        assert counts[1] == pytest.approx(1e13, rel=1e-5)
        assert counts[2] == np.round(counts[2]) >= 0


class TestDifferenceDetector:
    def test_identical_channels_cancel(self):
        x = np.arange(10.0)
        npt.assert_array_equal(difference_detector(x, x, 1.0), np.zeros(10))

    def test_common_mode_rejection_of_means(self):
        base_s = np.full(100, 200.0)
        base_r = np.full(100, 400.0)
        eps = 0.03
        out = difference_detector(base_s * (1 + eps), base_r * (1 + eps), 0.5)
        npt.assert_allclose(out, 0.0, atol=1e-9)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            difference_detector(np.zeros(5), np.zeros(6), 1.0)


class TestExtraction:
    def test_paired_schemes_cancel_identical_sequences(self):
        cfg = small_cfg(reference_enabled=False)
        counts = np.tile(np.arange(bin_count(cfg.laser_time, BIN),
                                   dtype=np.int64), (2, 1))
        record = ReadoutRecord(counts, None, BIN)
        npt.assert_array_equal(extract_signal(record, "C", cfg), [0.0])
        npt.assert_array_equal(extract_signal(record, "D", cfg), [0.0])

    def test_window_difference_matches_dip_integral(self):
        # deterministic record built from the expected rates directly
        cfg = small_cfg(photon_rate=1e12, reference_enabled=False)
        t = bin_centres(cfg, BIN)
        counts = np.round(fluorescence_expectation(0.0, cfg, t)
                          * BIN).astype(np.int64)
        record = ReadoutRecord(counts[None, :], None, BIN)
        got = extract_signal(record, "B", cfg)[0]
        # bin-centre sampling of the dip, not the exact integral
        dip = np.exp(-t[:bin_count(cfg.window_time, BIN)]
                     / cfg.repolarization_time).mean()
        assert got == pytest.approx(-cfg.contrast * dip, rel=1e-4)

    def test_scheme_a_level(self):
        cfg = small_cfg(photon_rate=1e12, reference_enabled=False)
        t = bin_centres(cfg, BIN)
        counts = np.round(fluorescence_expectation(1.0, cfg, t)
                          * BIN).astype(np.int64)
        record = ReadoutRecord(counts[None, :], None, BIN)
        assert extract_signal(record, "A", cfg)[0] == pytest.approx(1.0,
                                                                    rel=1e-6)

    def test_needs_enough_sequences(self):
        cfg = small_cfg()
        record = ReadoutRecord(
            np.zeros((1, bin_count(cfg.laser_time, BIN)), dtype=int), None, BIN)
        with pytest.raises(ValueError):
            extract_signal(record, "D", cfg)

    def test_bin_width_must_divide_the_windows(self):
        assert bin_count(10e-6, 1e-6) == 10
        with pytest.raises(ValueError):
            bin_count(10e-6, 3e-6)

    def test_record_level_matches_window_level_statistics(self):
        # The per-bin reference model and the window-level sampler draw
        # the same distribution: a window sum of per-bin Poisson counts is
        # Poisson with the window mean.  Both are sampled independently
        # for every scheme (A/B at one population, C/D at alternating
        # populations with per-sequence balance), and their sample means
        # and variances are compared.
        #
        # Tolerances from sampling statistics, at Z = 4.5 standard errors
        # (p ~ 7e-6 per comparison, 16 comparisons):
        # * mean: the difference of two independent means has standard
        #   error sqrt(s1^2/m + s2^2/m), about 5e-5 here.  The bin-centre
        #   rule misplaces each window's dip integral by at most
        #   contrast * (bin/tau)^2 / 24 = 1.7e-5 in signal units; twice
        #   that bound is added.
        # * variance: counts of ~5e4 per window are Gaussian to excess
        #   kurtosis 2e-5, so a sample variance has relative standard
        #   error sqrt(2/(m-1)) and the log of the ratio of two has
        #   sqrt(4/(m-1)).  The per-bin balance ratio, varying with the
        #   dip across the window, changes the variance of the subtracted
        #   reference by less than contrast^2 = 1.6e-3 relative; that is
        #   added too.
        z, n, bin_width = 4.5, 16_000, 0.1e-6
        rng = np.random.default_rng(77)
        for reference, schemes, populations in (
                (False, ("A", "B"), np.full(n, 0.3)),
                (False, ("C", "D"), np.tile([0.3, 0.8], n // 2)),
                (True, ("A", "B"), np.full(n, 0.3)),
                (True, ("C", "D"), np.tile([0.3, 0.8], n // 2))):
            cfg = small_cfg(photon_rate=1e10, laser_time=20e-6,
                            window_time=5e-6,
                            reference_enabled=reference)
            dip_bias = cfg.contrast * (bin_width
                                       / cfg.repolarization_time) ** 2 / 24
            record = simulate_record(populations, cfg, rng, bin_width)
            window = sequence_signals(populations, cfg, rng,
                                      balance_population=populations)
            for scheme, level in zip(schemes, window):
                if scheme in ("C", "D"):
                    level = pair_difference(level)
                binned = extract_signal(record, scheme, cfg,
                                        balance_population=populations)
                m = binned.size
                s1, s2 = binned.std(ddof=1), level.std(ddof=1)
                se_mean = np.sqrt((s1 ** 2 + s2 ** 2) / m)
                label = f"{scheme}, reference {reference}"
                assert abs(binned.mean() - level.mean()) \
                    <= z * se_mean + 2 * dip_bias, label
                log_ratio = np.log(s1 ** 2 / s2 ** 2)
                assert abs(log_ratio) <= z * np.sqrt(4 / (m - 1)) \
                    + cfg.contrast ** 2, label


class TestReferencingPenalty:
    def test_sqrt2_per_referencing_step(self):
        cfg_ref = small_cfg(photon_rate=1e12)
        cfg_off = small_cfg(photon_rate=1e12, reference_enabled=False)
        n = 60_000
        p = np.full(n, 0.5)
        rng = np.random.default_rng(42)
        s_a_off, s_b_off = sequence_signals(p, cfg_off, rng)
        rng = np.random.default_rng(42)
        s_a_ref, s_b_ref = sequence_signals(p, cfg_ref, rng)
        root2 = np.sqrt(2.0)
        # laser referencing, window referencing, sequence referencing
        assert s_a_ref.std() / s_a_off.std() == pytest.approx(root2, rel=0.05)
        assert s_b_ref.std() / s_a_ref.std() == pytest.approx(root2, rel=0.05)
        s_d = pair_difference(s_b_ref)
        assert s_d.std() / s_b_ref.std() == pytest.approx(root2, rel=0.05)

    def test_shot_noise_averages_down_as_sqrt_n(self):
        from nvmag import analysis
        cfg = small_cfg(photon_rate=1e12, reference_enabled=False)
        n = 1 << 17
        rng = np.random.default_rng(9)
        _, s_b = sequence_signals(np.full(n, 0.5), cfg, rng)
        grid = analysis.default_time_grid(n, T_SEQ, min_blocks=64)
        curve = analysis.std_vs_time(s_b, T_SEQ, grid)
        slope, _ = analysis.fit_log_slope(curve, grid[0], grid[-1])
        assert slope == pytest.approx(-0.5, abs=0.03)


class TestLaserNoiseRejection:
    def test_matched_reference_suppresses_laser_noise_below_shot(self):
        # 1% RMS low-frequency laser noise at the default photon budget:
        # without the reference beam it dominates the window difference,
        # with the balanced reference it disappears below shot noise
        from nvmag.noise import PsdModel, synthesize_trace
        n = 30_000
        cfg_on = small_cfg(photon_rate=9.277e18)
        cfg_off = small_cfg(photon_rate=9.277e18, reference_enabled=False)
        duration = n * T_SEQ
        # flicker level giving 1% RMS within the band the run resolves
        level = 1e-4 / duration
        model = PsdModel("laser_intensity", flicker=((level, 2.0),),
                         f_min=1e-3, f_max=5e4)
        trace = synthesize_trace(model, duration, T_SEQ, 31,
                                 window_centres(cfg_on),
                                 cfg_on.window_time)
        assert 0.002 < trace.samples.std() < 0.05
        eps = tuple(trace.samples)
        p = np.full(n, 0.5)

        _, s_b_shot = sequence_signals(p, cfg_off, np.random.default_rng(1))
        shot = s_b_shot.std()
        _, s_b_raw = sequence_signals(p, cfg_off, np.random.default_rng(1),
                                      laser_eps=eps)
        assert s_b_raw.std() > 5 * shot  # laser noise dominates unreferenced

        _, s_b_ref = sequence_signals(p, cfg_on, np.random.default_rng(2),
                                      laser_eps=eps, balance_population=0.5)
        shot_ref = np.sqrt(2.0) * shot  # reference doubles the variance
        assert s_b_ref.std() == pytest.approx(shot_ref, rel=0.05)

    def test_unbalanced_reference_leaks_laser_noise(self):
        # the suppression relies on balancing at the operating point: a
        # deliberately mismatched balance population lets the common
        # fluctuations back in
        from nvmag.noise import PsdModel, synthesize_trace
        n = 20_000
        cfg = small_cfg(photon_rate=9.277e18)
        duration = n * T_SEQ
        model = PsdModel("laser_intensity",
                         flicker=((1e-4 / duration, 2.0),),
                         f_min=1e-3, f_max=5e4)
        eps = tuple(synthesize_trace(model, duration, T_SEQ, 8,
                                     window_centres(cfg),
                                     cfg.window_time).samples)
        p = np.full(n, 0.5)
        _, s_matched = sequence_signals(p, cfg, np.random.default_rng(3),
                                        laser_eps=eps, balance_population=0.5)
        _, s_mismatch = sequence_signals(p, cfg, np.random.default_rng(3),
                                         laser_eps=eps, balance_population=0.30)
        assert s_mismatch.std() > 2 * s_matched.std()

    def test_window_averages_follow_the_filter_functions(self):
        # white laser noise, reference beam off and no shot noise to speak
        # of: each scheme's laser variance is the filter-function integral
        # level^2 int S |X_s(2 pi f)|^2 df / window_time^2 over the band
        # the synthesis resolves, 1/(n T_seq) to 1/window_time
        from nvmag.filters import filter_transmission
        from nvmag.noise import PsdModel, synthesize_trace
        from reference_noise import point_sampled_window_noise
        n, runs, s0 = 4096, 300, 1e-9
        cfg = small_cfg(photon_rate=1e30, reference_enabled=False)
        model = PsdModel("laser_intensity", white=s0)
        t_l, t_w = cfg.laser_time, cfg.window_time
        # bright population: both windows read the steady-state level
        p = np.ones(n)
        level = expected_window_counts(1.0, cfg, 0) / cfg.window_counts
        assert expected_window_counts(1.0, cfg, 1) / cfg.window_counts \
            == level
        f = np.linspace(1.0 / (n * T_SEQ), 1.0 / t_w, 200_001)

        def laser_variances(eps, seed):
            s_a, s_b = sequence_signals(p, cfg, np.random.default_rng(seed),
                                        laser_eps=eps)
            values = {"A": s_a - level, "B": s_b}
            values["C"] = pair_difference(values["A"])
            values["D"] = pair_difference(values["B"])
            return {k: np.mean(v ** 2) for k, v in values.items()}

        draws = [laser_variances(
            tuple(synthesize_trace(model, n * T_SEQ, T_SEQ, seed,
                                   window_centres(cfg), t_w).samples), seed)
            for seed in range(runs)]
        predicted = {}
        for scheme in "ABCD":
            x = filter_transmission(scheme, 2 * np.pi * f, t_l, t_w, T_SEQ)
            predicted[scheme] = level ** 2 * np.trapezoid(s0 * x ** 2, f) \
                / t_w ** 2
            v = np.array([d[scheme] for d in draws])
            # five standard errors of the mean over the realizations
            assert abs(v.mean() - predicted[scheme]) \
                < 5 * v.std() / np.sqrt(runs)

        # point samples at the window centres miss the window average:
        # for white noise they read 1 / int_0^1 sinc^2 = 2.2 times the
        # variance of scheme A
        point = np.mean([laser_variances(point_sampled_window_noise(
            model, n, T_SEQ, window_centres(cfg), t_w, seed), seed)["A"]
            for seed in range(20)])
        assert point > 2.0 * predicted["A"]

    def test_negative_laser_gain_clips_both_channels(self):
        # an excursion below -100% clips the reference channel as well as
        # the signal channel, so the window reads zero instead of failing
        cfg = small_cfg(photon_rate=1e12)
        eps = np.array([0.0, -1.5])
        with pytest.warns(RuntimeWarning, match="clipping"):
            s_a, s_b = sequence_signals(np.full(2, 0.5), cfg,
                                        np.random.default_rng(4),
                                        laser_eps=(eps, eps))
        assert s_a[1] == 0.0 and s_b[1] == 0.0
        assert s_a[0] != 0.0


class TestSchemeDInsensitivity:
    def test_slow_amplitude_wander_biases_b_not_d(self, params):
        # constant drive-amplitude offset: the slowest possible wander
        cfg = small_cfg(photon_rate=1e14)
        n = 40_000
        dg = np.full(n, 5e-3)
        phases = np.where(np.arange(n) % 2 == 0, np.pi / 2, -np.pi / 2)
        p_noisy = sq.echo_populations(50e-6, 5e6, params, dg, 0.0,
                                      final_phase=phases)
        p_clean = sq.echo_populations(50e-6, 5e6, params, 0.0, 0.0,
                                      final_phase=phases)
        rng = np.random.default_rng(17)
        s_a_n, s_b_n = sequence_signals(p_noisy, cfg, rng,
                                        balance_population=p_clean)
        rng = np.random.default_rng(17)
        s_a_c, s_b_c = sequence_signals(p_clean, cfg, rng,
                                        balance_population=p_clean)
        bias_b = s_b_n.mean() - s_b_c.mean()
        sem_b = s_b_n.std(ddof=1) / np.sqrt(n)
        assert abs(bias_b) > 10 * sem_b  # clearly visible on scheme B
        s_d_n = pair_difference(s_b_n)
        s_d_c = pair_difference(s_b_c)
        bias_d = s_d_n.mean() - s_d_c.mean()
        sem_d = s_d_n.std(ddof=1) / np.sqrt(s_d_n.size)
        assert abs(bias_d) < 4 * sem_d  # unbiased within statistics


class TestSeriesDeterminism:
    def test_same_seed_identical_series(self):
        cfg = small_cfg(photon_rate=1e11)
        p = np.full(2048, 0.5)
        a = sequence_signals(p, cfg, np.random.default_rng(3))
        b = sequence_signals(p, cfg, np.random.default_rng(3))
        npt.assert_array_equal(a[0], b[0])
        npt.assert_array_equal(a[1], b[1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_cfg(contrast=1.5)
        with pytest.raises(ValueError):
            small_cfg(window_time=200e-6)
        with pytest.raises(ValueError):
            small_cfg(photon_rate=-1.0)
