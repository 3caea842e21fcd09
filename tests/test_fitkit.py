"""Least-squares core and fit-model round-trips.

Noisy-fit tolerances were established from Monte-Carlo resampling (1000
draws for the sigma = 0.01 exponential: 99th-percentile error 2.2-3.4%
depending on grid; 400 draws at the sigma = 0.02 paper scale stay below
5%); the seeded values below are frozen regressions from those families.
"""
import numpy as np
import pytest

from decay_traces import synth_decay_trace

from cryomux import fitkit
from cryomux.errors import (
    BoundsError,
    DegenerateDataError,
    FitError,
    SingularJacobianError,
)
from cryomux.noisecalc import CoherenceRecord


def finite_difference_jacobian(model, x):
    """Central differences of model at x, one column per parameter."""
    base = np.asarray(model(x), dtype=float)
    jac = np.empty((base.size, x.size))
    for j in range(x.size):
        # step scales with the parameter itself; exact zeros fall back to an
        # absolute step and recover scale once the parameter moves
        step = 1e-6 * abs(x[j]) if x[j] != 0.0 else 1e-6
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (np.asarray(model(xp)) - np.asarray(model(xm))) / (2.0 * step)
    return jac


def fit_by_differences(model, data, initial, **kwargs):
    """least_squares with the model's Jacobian taken by central differences."""
    return fitkit.least_squares(
        model, data, initial, jacobian=lambda x: finite_difference_jacobian(model, x), **kwargs
    )


class TestLeastSquaresCore:
    def test_linear_model_exact_recovery(self):
        t = np.linspace(0.0, 10.0, 20)
        data = 2.5 * t + 1.25

        result = fit_by_differences(lambda x: x[0] * t + x[1], data, [0.0, 0.0])
        assert result.converged
        assert result.iterations <= 2
        assert result.parameters["p0"] == pytest.approx(2.5, rel=1e-9)
        assert result.parameters["p1"] == pytest.approx(1.25, rel=1e-9)

    def test_noiseless_exponential(self):
        t = np.linspace(0, 120e-6, 50)
        y = np.exp(-t / 30e-6)
        tau, result = fitkit.fit_t1(t, y)
        assert tau == pytest.approx(30e-6, rel=1e-8)
        assert result.standard_errors is not None

    def test_seeded_noisy_exponential_within_two_percent(self):
        t = np.linspace(0, 120e-6, 50)
        rng = np.random.default_rng(4)
        y = np.exp(-t / 30e-6) + rng.normal(0, 0.01, t.size)
        tau, _ = fitkit.fit_t1(t, y)
        assert abs(tau - 30e-6) / 30e-6 < 0.02
        assert tau == pytest.approx(2.9955081044708407e-05, rel=1e-9)  # frozen

    def test_covariance_symmetric_psd(self):
        t = np.linspace(0, 100e-6, 60)
        rng = np.random.default_rng(6)
        y = np.exp(-t / 30e-6) + rng.normal(0, 0.02, t.size)
        _, result = fitkit.fit_t1(t, y)
        cov = result.covariance
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.abs(cov).max()

    def test_singular_jacobian_reported(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(SingularJacobianError):
            # second parameter never enters the model
            fit_by_differences(lambda x: x[0] * t, 2 * t, [1.0, 1.0])

    def test_bounds_violation_reported(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(BoundsError):
            fit_by_differences(lambda x: x[0] * t, 2 * t, [5.0], bounds=[(0.0, 1.0)])

    def test_iteration_cap_reported_without_errors(self):
        t = np.linspace(0, 100e-6, 40)
        y = np.exp(-t / 30e-6)
        model, jac = fitkit._exp_model(t)
        result = fitkit.least_squares(
            model, y, [0.1, 90e-6, 0.4], jacobian=jac, max_iter=1
        )
        assert not result.converged
        assert result.status == "iteration_limit"
        assert result.standard_errors is None

    def test_polished_fit_does_not_depend_on_the_start(self):
        """A seeded RB decay fitted from four starting guesses: the stopping
        rule leaves p up to 5.8e-11 apart, the polish within 2.2e-16."""
        m = np.array([1, 5, 10, 20, 40, 80, 120, 200, 300, 400], dtype=float)
        rng = np.random.default_rng(3)
        y = 0.5 * 0.995**m + 0.5 + rng.normal(0, 0.003, m.size)
        model, jac = fitkit._rb_model(m)
        fits = [
            fitkit.least_squares(
                model, y, x0, bounds=[(-1.0, 2.0), (1e-12, 1.0), (-1.0, 2.0)],
                jacobian=jac, names=["a", "p", "b"],
            )
            for x0 in ([0.5, 0.995, 0.5], [0.3, 0.98, 0.6], [0.8, 0.999, 0.3], [0.45, 0.99, 0.55])
        ]
        assert all(fit.status == "residual" for fit in fits)
        assert len({fit.iterations for fit in fits}) == 4  # four different paths
        p = [fit.parameters["p"] for fit in fits]
        stderr = [fit.standard_errors["p"] for fit in fits]
        assert max(p) - min(p) <= 1e-14 * p[0]
        assert max(stderr) - min(stderr) <= 1e-12 * stderr[0]

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_by_differences(lambda x: np.array([x[0], x[1]]), [1.0, 2.0], [0.0, 0.0])

    def test_per_point_sigma_downweights_noisy_points(self):
        t = np.linspace(0.0, 1.0, 40)
        y = 3.0 * t.copy()
        y[-1] += 5.0  # one wild outlier
        sigma = np.ones_like(t)
        sigma[-1] = 100.0
        unweighted = fit_by_differences(lambda x: x[0] * t + x[1], y, [1.0, 0.0])
        weighted = fit_by_differences(lambda x: x[0] * t + x[1], y, [1.0, 0.0], sigma=sigma)
        assert abs(weighted.parameters["p0"] - 3.0) < 0.01
        assert abs(unweighted.parameters["p0"] - 3.0) > 0.1

    def test_sigma_must_match_data(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(FitError):
            fit_by_differences(lambda x: x[0] * t, 2 * t, [1.0], sigma=np.ones(3))

    # a negative sigma would square away in the weights and fit silently, an
    # infinite one would zero them and end in a singular Jacobian
    @pytest.mark.parametrize("value", [-1.0, np.inf], ids=["negative", "infinite"])
    def test_sigma_must_be_finite_and_positive(self, value):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(FitError, match="sigma must be finite, positive"):
            fit_by_differences(lambda x: x[0] * t, 2 * t, [1.0], sigma=np.full(10, value))

    @pytest.mark.parametrize(
        "maker,x0",
        [
            (fitkit._exp_model, [0.9, 25e-6, 0.05]),
            (fitkit._ramsey_model, [0.5, 25e-6, 0.4e6, 0.3, 0.5]),
            (fitkit._qp_model, [0.4, 12e-6, 35e-6]),
        ],
    )
    def test_analytic_jacobians_match_finite_differences(self, maker, x0):
        t = np.linspace(1e-7, 150e-6, 120)
        model, jac = maker(t)
        x0 = np.asarray(x0, dtype=float)
        numeric = finite_difference_jacobian(model, x0)
        analytic = jac(x0)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * np.max(np.abs(numeric))

    def test_rb_jacobian_matches_finite_differences(self):
        m = np.array([1, 2, 5, 10, 20, 50, 100, 200, 400], dtype=float)
        model, jac = fitkit._rb_model(m)
        x0 = np.array([0.45, 0.993, 0.52])
        numeric = finite_difference_jacobian(model, x0)
        analytic = jac(x0)
        assert analytic.shape == (m.size, 3)
        # column by column, so one wrong column cannot hide behind a larger one
        gap = np.max(np.abs(analytic - numeric), axis=0)
        assert np.all(gap <= 1e-6 * np.max(np.abs(numeric), axis=0)), gap


class TestCoherenceFits:
    TRUTH = CoherenceRecord(t1=30e-6, t2_star=25e-6, t2_echo=35e-6)

    def test_t1_noiseless_roundtrip(self):
        t = np.linspace(0, 120e-6, 80)
        y = synth_decay_trace("t1", self.TRUTH, times=t)
        tau, _ = fitkit.fit_t1(t, y)
        assert tau == pytest.approx(30e-6, rel=1e-6)

    def test_ramsey_noiseless_roundtrip(self):
        t = np.linspace(0, 60e-6, 400)
        y = synth_decay_trace("ramsey", self.TRUTH, detuning=0.5e6, times=t)
        t2s, detuning, _ = fitkit.fit_ramsey(t, y)
        assert t2s == pytest.approx(25e-6, rel=1e-6)
        assert detuning == pytest.approx(0.5e6, rel=1e-6)

    def test_echo_noiseless_roundtrip(self):
        t = np.linspace(0, 140e-6, 100)
        y = synth_decay_trace("echo", self.TRUTH, times=t)
        t2e, _ = fitkit.fit_echo(t, y)
        assert t2e == pytest.approx(35e-6, rel=1e-6)

    def test_paper_scale_noisy_roundtrips_within_five_percent(self):
        t1_axis = np.linspace(0, 120e-6, 200)
        y1 = synth_decay_trace("t1", self.TRUTH, times=t1_axis, noise_sigma=0.02, seed=11)
        tau, _ = fitkit.fit_t1(t1_axis, y1)
        assert abs(tau - 30e-6) / 30e-6 < 0.05

        ramsey_axis = np.linspace(0, 60e-6, 400)
        y2 = synth_decay_trace(
            "ramsey", self.TRUTH, detuning=0.5e6, times=ramsey_axis, noise_sigma=0.02, seed=12
        )
        t2s, detuning, _ = fitkit.fit_ramsey(ramsey_axis, y2)
        assert abs(t2s - 25e-6) / 25e-6 < 0.05
        assert abs(detuning - 0.5e6) / 0.5e6 < 0.01

        echo_axis = np.linspace(0, 140e-6, 200)
        y3 = synth_decay_trace("echo", self.TRUTH, times=echo_axis, noise_sigma=0.02, seed=13)
        t2e, _ = fitkit.fit_echo(echo_axis, y3)
        assert abs(t2e - 35e-6) / 35e-6 < 0.05

    def test_roundtrip_property_100_draws(self):
        # noiseless synthesize -> fit must invert to 1e-6 across the
        # documented parameter ranges for every model
        rng = np.random.default_rng(2024)
        for _ in range(100):
            t1 = rng.uniform(5e-6, 80e-6)
            t2s = rng.uniform(5e-6, min(2 * t1, 70e-6) * 0.95)
            t2e = rng.uniform(5e-6, min(2 * t1, 70e-6) * 0.95)
            detuning = rng.uniform(0.1e6, 1.5e6)
            truth = CoherenceRecord(t1=t1, t2_star=t2s, t2_echo=t2e)

            t_axis = np.linspace(0, 4 * t1, 120)
            fitted_t1, _ = fitkit.fit_t1(
                t_axis, synth_decay_trace("t1", truth, times=t_axis)
            )
            assert fitted_t1 == pytest.approx(t1, rel=1e-6)

            t_axis = np.linspace(0, 3 * t2e, 120)
            fitted_t2e, _ = fitkit.fit_echo(
                t_axis, synth_decay_trace("echo", truth, times=t_axis)
            )
            assert fitted_t2e == pytest.approx(t2e, rel=1e-6)

            t_axis = np.linspace(0, 3 * t2s, max(240, int(6 * detuning * 3 * t2s)))
            fitted_t2s, fitted_f, _ = fitkit.fit_ramsey(
                t_axis, synth_decay_trace("ramsey", truth, detuning=detuning, times=t_axis)
            )
            assert fitted_t2s == pytest.approx(t2s, rel=1e-6)
            assert fitted_f == pytest.approx(detuning, rel=1e-6)


class TestQuasiparticleFit:
    def test_noiseless_inversion(self):
        t = np.linspace(1e-7, 150e-6, 120)
        y = np.exp(0.5 * (np.exp(-t / 10e-6) - 1)) * np.exp(-t / 40e-6)
        params, result = fitkit.fit_qp_double_exp(t, y)
        assert params.n_qp == pytest.approx(0.5, rel=1e-6)
        assert params.t1_qp == pytest.approx(10e-6, rel=1e-6)
        assert params.t1_r == pytest.approx(40e-6, rel=1e-6)

    def test_no_transient_degenerates_to_single_exponential(self):
        t = np.linspace(1e-7, 150e-6, 120)
        y = np.exp(-t / 40e-6)
        params, _ = fitkit.fit_qp_double_exp(t, y)
        tau, _ = fitkit.fit_t1(t, y)
        assert params.n_qp == 0.0
        assert params.t1_r == pytest.approx(tau, rel=1e-6)

    def test_identifiability_stress_reports_wide_errors(self):
        # t1_qp = t1_r leaves a nearly flat direction: the fit must come
        # back converged with honestly wide uncertainties, not a confident
        # wrong answer
        t = np.linspace(1e-7, 150e-6, 120)
        y = np.exp(0.5 * (np.exp(-t / 40e-6) - 1)) * np.exp(-t / 40e-6)
        rng = np.random.default_rng(21)
        noisy = y + rng.normal(0, 0.005, t.size)
        params, degenerate = fitkit.fit_qp_double_exp(t, noisy)

        separated = np.exp(0.5 * (np.exp(-t / 10e-6) - 1)) * np.exp(-t / 40e-6)
        _, clean = fitkit.fit_qp_double_exp(t, separated + rng.normal(0, 0.005, t.size))

        def rel_err(res, key):
            return res.standard_errors[key] / abs(res.parameters[key])

        assert degenerate.converged
        assert rel_err(degenerate, "t1_qp") > 0.10
        assert rel_err(degenerate, "t1_qp") > 3 * rel_err(clean, "t1_qp")

    def test_flat_trace_rejected(self):
        t = np.linspace(0, 100e-6, 50)
        with pytest.raises(DegenerateDataError):
            fitkit.fit_qp_double_exp(t, np.full(t.size, 1.0))


class TestBenchmarkingDecayFit:
    def test_exact_recovery(self):
        m = np.array([1, 2, 5, 10, 20, 50, 100, 200, 400], dtype=float)
        y = 0.5 * 0.999**m + 0.5
        result = fitkit.fit_rb_decay(m, y)
        assert result.parameters["a"] == pytest.approx(0.5, abs=1e-6)
        assert result.parameters["b"] == pytest.approx(0.5, abs=1e-6)
        assert result.parameters["p"] == pytest.approx(0.999, abs=1e-6)

    def test_needs_three_points(self):
        with pytest.raises(FitError):
            fitkit.fit_rb_decay([1, 2], [0.9, 0.8])

    def test_repeated_lengths_take_the_fallback_start(self, monkeypatch):
        """Only the three m = 2 points stand clear of the tail, so the masked
        lengths have no spread: the start is p0 = 0.99, with no warning."""
        m = np.array([2, 2, 2, 50, 100, 200], dtype=float)
        y = 0.5 * 0.9**m + 0.5
        starts = []
        least_squares = fitkit.least_squares

        def spy(model, data, initial, *args, **kwargs):
            starts.append(list(initial))
            return least_squares(model, data, initial, *args, **kwargs)

        monkeypatch.setattr(fitkit, "least_squares", spy)
        result = fitkit.fit_rb_decay(m, y)
        assert starts[0][1] == 0.99
        assert result.converged
        assert result.parameters["p"] == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fidelity_names_its_index(self, bad):
        m = np.array([1, 2, 5, 10, 20, 50, 100], dtype=float)
        y = 0.5 * 0.99**m + 0.5
        y[4] = bad
        with pytest.raises(FitError, match="sample 4 is not finite"):
            fitkit.fit_rb_decay(m, y)


class TestNonFiniteTraces:
    @pytest.mark.parametrize("fit", [fitkit.fit_t1, fitkit.fit_echo, fitkit.fit_ramsey, fitkit.fit_qp_double_exp])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_signal_sample_names_its_index(self, fit, bad):
        t = np.linspace(0.0, 100e-6, 40)
        y = 0.5 * (1.0 + np.exp(-t / 30e-6))
        y[7] = bad
        with pytest.raises(FitError, match="sample 7 is not finite"):
            fit(t, y)

    def test_time_sample_names_its_index(self):
        t = np.linspace(0.0, 100e-6, 40)
        y = np.exp(-t / 30e-6)
        t[-1] = np.inf
        with pytest.raises(FitError, match="sample 39 is not finite"):
            fitkit.fit_t1(t, y)


class TestCsvIo:
    def test_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "# comment line\ntime_s,signal\n0.0,1.0\n1e-06,0.9\n2e-06,0.82\n"
        )
        t, y = fitkit.read_trace_csv(path)
        assert np.array_equal(t, [0.0, 1e-6, 2e-6])
        assert np.array_equal(y, [1.0, 0.9, 0.82])

    def test_one_cell_numeric_row_names_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("# comment line\ntime_s\n0.0,1.0\n1e-06\n2e-06,0.82\n")
        with pytest.raises(FitError, match="line 4"):
            fitkit.read_trace_csv(path)

    def test_three_cell_numeric_row_names_its_line(self, tmp_path):
        # a third cell is not dropped: 0,1,7 is not read as 0,1
        path = tmp_path / "wide.csv"
        path.write_text("# comment line\ntime_s,signal\n0.0,1.0\n1e-06,0.9,7\n2e-06,0.82\n")
        with pytest.raises(FitError, match=r"wide\.csv, line 4: a numeric row has 3 cells"):
            fitkit.read_trace_csv(path)

    def test_non_numeric_row_after_the_data_names_its_line(self, tmp_path):
        # only rows before the first numeric row may be headers; a later
        # row that does not parse is not dropped from the trace
        path = tmp_path / "garbled.csv"
        path.write_text("# comment line\ntime_s,signal\n0.0,1.0\n1e-06,abc\n2e-06,0.82\n")
        with pytest.raises(FitError, match=r"garbled\.csv, line 4"):
            fitkit.read_trace_csv(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing\n")
        with pytest.raises(FitError):
            fitkit.read_trace_csv(path)
