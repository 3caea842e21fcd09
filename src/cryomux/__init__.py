"""Cryogenic RF multiplexer and transmon control-chain simulator."""

from .chainmodel import (
    CoolingBudget,
    EnvelopeModulator,
    GatingSchedule,
    MuxModel,
    per_channel_budget,
    qubit_capacity,
)
from .fitkit import (
    FitResult,
    QpModelParams,
    fit_echo,
    fit_qp_double_exp,
    fit_ramsey,
    fit_rb_decay,
    fit_t1,
    least_squares,
)
from .noisecalc import (
    CoherenceRecord,
    DriveCoupling,
    TransmonParams,
    dephasing_from_occupancy,
    dephasing_vs_switching,
    drive_coupling_energy,
    excess_rate,
    occupancy_from_dephasing,
    occupancy_to_temperature,
    propagate_attenuation,
    t1_limit,
    temperature_to_occupancy,
    voltage_noise_psd,
)
from .qubitsim import (
    PulseSpec,
    QubitState,
    SimConfig,
    calibrate_pi_pulse,
    detected_population,
    evolve,
    gate_channel,
    tdm_experiment,
    tdm_sweep,
    windowed_rabi_angle,
)
from .rbengine import (
    CliffordTable,
    RbResult,
    build_clifford_table,
    coherence_limited_fidelity,
    error_rates_from_decay,
    fit_rb,
    run_rb,
)
from .scenarios import list_scenarios, run_scenario

__version__ = "0.1.0"
