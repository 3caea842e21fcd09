"""Synthetic decay traces for the fit tests.

pytest does not collect this file (its name does not start with test_).
"""
from typing import Sequence

import numpy as np

from cryomux.constants import TWO_PI
from cryomux.errors import ConfigError
from cryomux.noisecalc import CoherenceRecord


def synth_decay_trace(
    kind: str,
    truth: CoherenceRecord,
    times: Sequence[float] | np.ndarray,
    detuning: float = 0.0,
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> np.ndarray:
    """Generate an ideal decay trace with optional Gaussian observation noise.

    t1     : exp(-t/T1)
    ramsey : 0.5 * (1 + exp(-t/T2*) cos(2 pi detuning t))
    echo   : 0.5 * (1 + exp(-t/T2e))
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0 or np.any(np.diff(t) <= 0):
        raise ConfigError("times must be non-empty and strictly increasing")
    if kind == "t1":
        y = np.exp(-t / truth.t1)
    elif kind == "ramsey":
        y = 0.5 * (1.0 + np.exp(-t / truth.t2_star) * np.cos(TWO_PI * detuning * t))
    elif kind == "echo":
        y = 0.5 * (1.0 + np.exp(-t / truth.t2_echo))
    else:
        raise ConfigError(f"unknown trace kind {kind!r}")
    if noise_sigma:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=y.shape)
    return y
