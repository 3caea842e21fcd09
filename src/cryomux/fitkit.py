"""Nonlinear least-squares core and the coherence-analysis fit models.

The solver is a damped Gauss-Newton (Levenberg-Marquardt style) loop:
deterministic for fixed inputs, with the model's Jacobian supplied by the
caller (every shipped model has an analytic one). Shipped models:
single-exponential decay (T1/echo), exponentially damped cosine (Ramsey),
power-law benchmarking decay A*p^m + B, and the quasiparticle-tunnelling
double exponential.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import BoundsError, ConfigError, DegenerateDataError, FitError, SingularJacobianError

_MAX_LAMBDA = 1e12
_FTOL = 1e-10  # converged once an accepted step improves the cost by less than this fraction
_GTOL = 1e-12  # converged once every scaled gradient component is below this
# plain Gauss-Newton steps taken after convergence: the stopping rule fires
# wherever the cost's rounding hides further progress, and these steps carry
# x from there onto the least-squares solution itself
_POLISH_STEPS = 3


@dataclass
class FitResult:
    """Outcome of a least-squares minimization.

    parameters are named; standard_errors are present only on convergence
    (from the Jacobian-based covariance at the optimum).
    """

    parameters: dict[str, float]
    standard_errors: dict[str, float] | None
    covariance: np.ndarray | None
    residual_norm: float
    converged: bool
    iterations: int
    status: str


@dataclass(frozen=True)
class QpModelParams:
    """Quasiparticle double-exponential parameters (all >= 0)."""

    n_qp: float
    t1_qp: float
    t1_r: float

    def __post_init__(self):
        if self.n_qp < 0 or self.t1_qp < 0 or self.t1_r < 0:
            raise ConfigError("quasiparticle model parameters must be >= 0")


def least_squares(
    model: Callable[[np.ndarray], np.ndarray],
    data: Sequence[float] | np.ndarray,
    initial: Sequence[float] | np.ndarray,
    bounds: Sequence[tuple[float, float]] | None = None,
    *,
    jacobian: Callable[[np.ndarray], np.ndarray],
    names: Sequence[str] | None = None,
    sigma: Sequence[float] | np.ndarray | None = None,
    max_iter: int = 200,
) -> FitResult:
    """Minimize ||(model(x) - data) / sigma||^2 with a damped Gauss-Newton loop.

    Steps solve (J^T J + lam diag(J^T J)) dx = -J^T r and are clipped into
    the bounds; lam shrinks on acceptance and grows on rejection. Converges
    on relative residual change < _FTOL or scaled gradient < _GTOL, then
    takes _POLISH_STEPS undamped steps, solving J^T J dx = -J^T r with no
    cost test and clipping into the bounds, and computes the covariance at
    the polished x. jacobian maps x to the (len(data), len(x)) derivative of
    model(x). sigma is an optional per-point uncertainty used as inverse
    weights.
    """
    y = np.asarray(data, dtype=float)
    x = np.asarray(initial, dtype=float).copy()
    if names is None:
        names = [f"p{j}" for j in range(x.size)]
    if y.size < x.size + 1:
        raise FitError("need at least one more data point than parameters")
    if sigma is not None:
        weights = 1.0 / np.asarray(sigma, dtype=float)
        if weights.shape != y.shape or not np.all(np.isfinite(weights)):
            raise FitError("sigma must be finite, positive and match the data length")
    else:
        weights = None
    lo = np.full(x.size, -np.inf)
    hi = np.full(x.size, np.inf)
    if bounds is not None:
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        if np.any(x < lo) or np.any(x > hi):
            raise BoundsError("initial guess violates the parameter bounds")
    raw_model = model
    if weights is None:
        jac_fn = jacobian
    else:
        y = y * weights
        model = lambda p: np.asarray(raw_model(p), dtype=float) * weights
        jac_fn = lambda p: np.asarray(jacobian(p), dtype=float) * weights[:, None]

    r = np.asarray(model(x), dtype=float) - y
    cost = float(r @ r)
    cost_floor = 1e-20 * max(1.0, float(y @ y))
    lam = 1e-10  # near Gauss-Newton start; grows quickly on rejection
    status = "iteration_limit"
    converged = False
    iterations = 0
    jac = None

    for iterations in range(1, max_iter + 1):
        if cost <= cost_floor:
            status, converged = "residual_floor", True
            break
        jac = np.asarray(jac_fn(x), dtype=float)
        if not np.all(np.isfinite(jac)):
            raise FitError("Jacobian evaluated to non-finite values")
        grad = jac.T @ r
        col_norms = np.sqrt((jac * jac).sum(axis=0))
        scaled_grad = np.abs(grad) / np.maximum(col_norms * math.sqrt(cost), 1e-300)
        if np.max(scaled_grad) < _GTOL:
            status, converged = "gradient", True
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        if np.any(diag <= 0.0):
            raise SingularJacobianError(
                f"parameter {names[int(np.argmin(diag))]!r} has no effect on the model"
            )
        accepted = False
        while lam <= _MAX_LAMBDA:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobianError(str(exc)) from exc
            x_new = np.clip(x + step, lo, hi)
            r_new = np.asarray(model(x_new), dtype=float) - y
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                improvement = cost - cost_new
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                if cost <= cost_floor:
                    status, converged = "residual_floor", True
                elif improvement <= _FTOL * max(cost, 1e-300):
                    status, converged = "residual", True
                break
            lam *= 10.0
        if converged:
            break
        if not accepted:
            status = "stalled"
            break

    if converged:
        for _ in range(_POLISH_STEPS):
            jac = np.asarray(jac_fn(x), dtype=float)
            try:
                step = np.linalg.solve(jac.T @ jac, -(jac.T @ r))
            except np.linalg.LinAlgError as exc:
                raise SingularJacobianError(str(exc)) from exc
            x = np.clip(x + step, lo, hi)
            r = np.asarray(model(x), dtype=float) - y
        cost = float(r @ r)
    parameters = dict(zip(names, (float(v) for v in x)))
    standard_errors = None
    covariance = None
    if converged:
        jac = np.asarray(jac_fn(x), dtype=float)
        dof = max(y.size - x.size, 1)
        sigma2 = cost / dof
        try:
            cov = sigma2 * np.linalg.pinv(jac.T @ jac)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        covariance = 0.5 * (cov + cov.T)
        standard_errors = {
            name: float(math.sqrt(max(covariance[j, j], 0.0)))
            for j, name in enumerate(names)
        }
    return FitResult(
        parameters=parameters,
        standard_errors=standard_errors,
        covariance=covariance,
        residual_norm=float(math.sqrt(cost)),
        converged=converged,
        iterations=iterations,
        status=status,
    )


# ---------------------------------------------------------------------------
# Shipped models with analytic Jacobians
# ---------------------------------------------------------------------------

def _exp_model(t):
    def model(x):
        a, tau, c = x
        return a * np.exp(-t / tau) + c

    def jac(x):
        a, tau, c = x
        e = np.exp(-t / tau)
        return np.column_stack([e, a * e * t / tau**2, np.ones_like(t)])

    return model, jac


def _ramsey_model(t):
    def model(x):
        a, tau, f, phi, c = x
        return a * np.exp(-t / tau) * np.cos(2 * np.pi * f * t + phi) + c

    def jac(x):
        a, tau, f, phi, c = x
        e = np.exp(-t / tau)
        arg = 2 * np.pi * f * t + phi
        cos, sin = np.cos(arg), np.sin(arg)
        return np.column_stack(
            [
                e * cos,
                a * e * cos * t / tau**2,
                -a * e * sin * 2 * np.pi * t,
                -a * e * sin,
                np.ones_like(t),
            ]
        )

    return model, jac


def _rb_model(m):
    def model(x):
        a, p, b = x
        return a * p**m + b

    def jac(x):
        a, p, b = x
        pm = p**m
        return np.column_stack([pm, a * m * p ** (m - 1), np.ones_like(pm)])

    return model, jac


def _qp_model(t):
    def model(x):
        n_qp, t1_qp, t1_r = x
        return np.exp(n_qp * (np.exp(-t / t1_qp) - 1.0)) * np.exp(-t / t1_r)

    def jac(x):
        n_qp, t1_qp, t1_r = x
        eq = np.exp(-t / t1_qp)
        y = np.exp(n_qp * (eq - 1.0)) * np.exp(-t / t1_r)
        return np.column_stack(
            [
                y * (eq - 1.0),
                y * n_qp * eq * t / t1_qp**2,
                y * t / t1_r**2,
            ]
        )

    return model, jac


def _exp_tail_init(t, y):
    """(a, tau, c) seed from the tail offset and a log-linear slope."""
    c0 = float(np.mean(y[-max(3, y.size // 10):]))
    a0 = float(y[0] - c0)
    span = float(t[-1] - t[0])
    resid = y - c0
    scale = abs(a0) if a0 != 0 else 1.0
    mask = resid * np.sign(a0 if a0 != 0 else 1.0) > 0.05 * scale
    if np.count_nonzero(mask) >= 3:
        slope = np.polyfit(t[mask], np.log(np.abs(resid[mask])), 1)[0]
        tau0 = -1.0 / slope if slope < 0 else span / 2.0
    else:
        tau0 = span / 2.0
    tau0 = min(max(tau0, span / 200.0), span * 100.0)
    return a0, tau0, c0


def _fit_exp_decay(times, signal, name: str, label: str) -> tuple[float, FitResult]:
    """Fit a*exp(-t/tau) + c; returns tau, named `name` in the result."""
    t, y = _validated_trace(times, signal)
    model, jac = _exp_model(t)
    a0, tau0, c0 = _exp_tail_init(t, y)
    result = least_squares(
        model, y, [a0, tau0, c0], jacobian=jac, names=["amplitude", name, "offset"]
    )
    _require_converged(result, label)
    return result.parameters[name], result


def fit_t1(times, signal) -> tuple[float, FitResult]:
    """Fit exp(-t/T1) relaxation (with free amplitude and offset)."""
    return _fit_exp_decay(times, signal, "t1", "t1")


def fit_echo(times, signal) -> tuple[float, FitResult]:
    """Fit the spin-echo decay 0.5*(1 + exp(-t/T2e))."""
    return _fit_exp_decay(times, signal, "t2_echo", "echo")


def fit_ramsey(times, signal) -> tuple[float, float, FitResult]:
    """Fit the Ramsey fringe; returns (t2_star, detuning_hz, result).

    The detuning seed comes from the FFT peak of the offset-free signal,
    which needs a roughly uniform time grid.
    """
    t, y = _validated_trace(times, signal)
    c0 = float(np.mean(y))
    resid = y - c0
    a0 = float((np.max(y) - np.min(y)) / 2.0)
    dt = float(np.median(np.diff(t)))
    spectrum = np.fft.rfft(resid)
    freqs = np.fft.rfftfreq(t.size, dt)
    peak = int(np.argmax(np.abs(spectrum[1:]))) + 1
    f0 = float(freqs[peak])
    phi0 = float(np.angle(spectrum[peak]))
    tau0 = float(t[-1] - t[0]) / 2.0
    model, jac = _ramsey_model(t)
    result = least_squares(
        model,
        y,
        [a0, tau0, f0, phi0, c0],
        jacobian=jac,
        names=["amplitude", "t2_star", "detuning_hz", "phase", "offset"],
    )
    _require_converged(result, "ramsey")
    return result.parameters["t2_star"], result.parameters["detuning_hz"], result


def fit_rb_decay(lengths, fidelities) -> FitResult:
    """Fit A*p^m + B with the benchmarking initialization heuristics."""
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(fidelities, dtype=float)
    if m.size != y.size or m.size < 3:
        raise FitError("need at least three (length, fidelity) points")
    b0 = float(np.mean(y[-max(2, y.size // 4):]))
    a0 = float(y[0] - b0)
    resid = y - b0
    mask = resid > max(1e-6, 0.02 * abs(a0))
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(m[mask], np.log(resid[mask]), 1)[0]
        p0 = float(np.exp(slope))
    else:
        p0 = 0.99
    p0 = min(max(p0, 1e-6), 1.0)
    model, jac = _rb_model(m)
    return least_squares(
        model,
        y,
        [a0, p0, b0],
        bounds=[(-1.0, 2.0), (1e-12, 1.0), (-1.0, 2.0)],
        jacobian=jac,
        names=["a", "p", "b"],
    )


def fit_qp_double_exp(times, signal) -> tuple[QpModelParams, FitResult]:
    """Fit the quasiparticle double exponential
    y(t) = exp(n_qp (exp(-t/T1qp) - 1)) * exp(-t/T1R).

    n_qp = 0 degenerates to a single exponential with tau = T1R; a flat
    trace is rejected instead of silently returning garbage.
    """
    t, y = _validated_trace(times, signal)
    if float(np.ptp(y)) < 1e-9:
        raise DegenerateDataError("trace is flat; the decay model is unidentifiable")
    if abs(y[0] - 1.0) > 0.2:
        raise FitError("quasiparticle model expects y(0) near 1")
    tail = slice(t.size // 2, None)
    logy = np.log(np.clip(y, 1e-12, None))
    slope = np.polyfit(t[tail], logy[tail], 1)[0]
    t1_r0 = -1.0 / slope if slope < 0 else float(t[-1] - t[0])
    n_qp0 = max(float(np.mean(-logy[tail] - t[tail] / t1_r0)), 0.01)
    model, jac = _qp_model(t)
    span = float(t[-1] - t[0])
    bounds = [(0.0, 50.0), (span * 1e-4, span * 1e3), (span * 1e-4, span * 1e3)]
    # the model is local-minimum prone (a fast quasiparticle transient can
    # masquerade as an amplitude scale): deterministic multistart over the
    # transient timescale, keep the best converged fit
    result = None
    candidate = None
    saw_singular = False
    for t1_qp0 in (span / 20.0, span / 5.0, t1_r0):
        try:
            candidate = least_squares(
                model,
                y,
                [n_qp0, max(t1_qp0, span * 1e-4), t1_r0],
                bounds=bounds,
                jacobian=jac,
                names=["n_qp", "t1_qp", "t1_r"],
            )
        except SingularJacobianError:
            # n_qp pinned at zero makes t1_qp inert
            saw_singular = True
            continue
        if candidate.converged and (result is None or candidate.residual_norm < result.residual_norm):
            result = candidate
    if result is None and saw_singular:
        return _fit_qp_no_transient(t, y)
    if result is None:
        result = candidate
    _require_converged(result, "quasiparticle")
    params = QpModelParams(
        n_qp=result.parameters["n_qp"],
        t1_qp=result.parameters["t1_qp"],
        t1_r=result.parameters["t1_r"],
    )
    return params, result


def _fit_qp_no_transient(t, y):
    """Degenerate quasiparticle fit: no transient, pure exp(-t/t1_r)."""
    tail = slice(t.size // 2, None)
    slope = np.polyfit(t[tail], np.log(np.clip(y[tail], 1e-12, None)), 1)[0]
    tau0 = -1.0 / slope if slope < 0 else float(t[-1] - t[0])

    def model(x):
        return np.exp(-t / x[0])

    def jac(x):
        e = np.exp(-t / x[0])
        return (e * t / x[0] ** 2)[:, None]

    reduced = least_squares(model, y, [tau0], jacobian=jac, names=["t1_r"])
    _require_converged(reduced, "quasiparticle")
    return QpModelParams(0.0, 0.0, reduced.parameters["t1_r"]), reduced


def _validated_trace(times, signal):
    t = np.asarray(times, dtype=float)
    y = np.asarray(signal, dtype=float)
    if t.size != y.size:
        raise FitError("time and signal arrays differ in length")
    if t.size < 4:
        raise FitError("need at least four samples")
    if np.any(np.diff(t) <= 0):
        raise FitError("time axis must be strictly increasing")
    return t, y


def _require_converged(result: FitResult, label: str) -> None:
    if not result.converged:
        raise FitError(f"{label} fit did not converge: {result.status}")


def read_trace_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (time_s, signal) CSV, skipping comment/header rows."""
    times, signal = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                t, y = float(row[0]), float(row[1])
            except ValueError:
                continue  # header row
            times.append(t)
            signal.append(y)
    if not times:
        raise FitError(f"no numeric rows found in {path}")
    return np.asarray(times), np.asarray(signal)
