"""Physical constants (CODATA 2018 exact values) and unit helpers."""
import math

PLANCK_H = 6.62607015e-34        # J s
HBAR = PLANCK_H / (2.0 * math.pi)  # 1.054571817e-34 J s
BOLTZMANN_K = 1.380649e-23       # J/K

TWO_PI = 2.0 * math.pi


def db_to_power_ratio(db: float) -> float:
    """Convert a positive attenuation in dB to the transmitted power fraction."""
    return 10.0 ** (-db / 10.0)
