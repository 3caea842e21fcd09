"""The three benchmark workloads: seeded inputs, the timed op, and output checks.

Each workload class takes the inputs made by `make_inputs` and offers
`prepare()` (untimed reference values), `op(i)` (the timed operation, which
returns the files it wrote) and `check(i, paths)` (a list of problems, empty
when the output is correct). Checks never raise on a wrong value, so a bad
output counts toward the failed fraction instead of aborting the run.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from cryomux import chainmodel, fitkit, qubitsim, rbengine, scenarios

# tdm_sweep: one op is a 2-level and a 3-level Fig. 4b sweep over the same
# seeded window widths.
TDM_WINDOWS = 31
TDM_WINDOW_STOP_NS = 60.0
TDM_LEVEL3 = {"levels": 3, "pulse_shape": "cosine_drag", "rise_time_s": 2.6e-9}
# Acceptance criterion 4 bounds the 2-level sweep against the analytic curve.
TDM_ANALYTIC_TOL = 1e-6
# 3-level rows are compared with a run at a quarter of the default step for a
# few windows. The gap at this commit is ~1e-12; the tolerance sits above the
# ~1e-7 discretisation error the ROADMAP quotes, so a more accurate
# integrator still passes.
TDM_REFERENCE_WINDOWS = 3
TDM_REFERENCE_STEP_DIVISOR = 8000
TDM_REFERENCE_TOL = 1e-6

# rb_paper: paper-scale randomized benchmarking, 3 T2* x 10 lengths x 80.
RB_LENGTHS = rbengine.DEFAULT_SEQUENCE_LENGTHS
RB_REPEATS = 80
RB_SEEDS = 64
# Seeds 0-3 gave |f_1q_fit - f_1q_model| up to 2.3e-5; the reported stderr
# understates that gap, so the bound is absolute.
RB_FIDELITY_TOL = 1e-4

# analysis_mix: closed-form scenarios against the goldens, and fits of
# seeded noisy traces read back from CSV.
CLOSED_FORM = (
    "fig2_power",
    "fig3_coherence",
    "fig3f_slope",
    "methods_t1_limit",
    "methods_teff",
    "scaling_capacity",
)
FITS = ("t1", "echo", "ramsey", "rb")
MIX_TRACES_PER_FIT = 16
MIX_SCHEDULE_DECKS = 400
GOLDEN_REL_TOL = 1e-9  # the ROADMAP's drift rule for regenerated goldens
TRACE_NOISE = 0.01
# Largest error / TRACE_NOISE seen over 1,500 seeded traces per fit, with
# this commit's fitter: t1 4.2, echo 9.8, Ramsey T2* 5.4 (relative decay
# time); Ramsey detuning 0.41 (relative); RB p 0.095 (absolute). The bounds
# are about twice those.
FIT_TIME_K = 20.0
FIT_DETUNING_K = 1.0
FIT_RB_P_K = 0.2


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Generate a workload's inputs from its seed; analysis_mix also writes
    its noisy traces under workdir."""
    rng = np.random.default_rng(seed)
    if workload == "tdm_sweep":
        windows = [float(w) for w in np.round(rng.uniform(0.0, TDM_WINDOW_STOP_NS, TDM_WINDOWS), 3)]
        reference = sorted(int(i) for i in rng.choice(TDM_WINDOWS, TDM_REFERENCE_WINDOWS, replace=False))
        return {"windows_ns": windows, "reference_rows": reference}
    if workload == "rb_paper":
        return {"scenario_seeds": [int(s) for s in rng.integers(0, 2**31 - 1, RB_SEEDS)]}
    if workload == "analysis_mix":
        return {"traces": _write_traces(rng, workdir / "traces"), "schedule": _mix_schedule(rng)}
    raise KeyError(f"unknown workload {workload!r}")


def _mix_schedule(rng) -> list[tuple[str, str | int]]:
    """Shuffled decks of every closed-form scenario and every fit. Scenario
    ops alternate between csv and json output; fit ops cycle through the
    traces of their kind."""
    deck = [("scenario", name) for name in CLOSED_FORM] + [("fit", kind) for kind in FITS]
    n_scenario = 0
    n_fit = {kind: 0 for kind in FITS}
    schedule = []
    for _ in range(MIX_SCHEDULE_DECKS):
        for kind, name in (deck[i] for i in rng.permutation(len(deck))):
            if kind == "scenario":
                schedule.append((name, "csv" if n_scenario % 2 == 0 else "json"))
                n_scenario += 1
            else:
                schedule.append((name, n_fit[name] % MIX_TRACES_PER_FIT))
                n_fit[name] += 1
    return schedule


def _write_traces(rng, trace_dir: Path) -> dict:
    trace_dir.mkdir(parents=True, exist_ok=True)
    t_decay = np.linspace(0.0, 150e-6, 61)
    t_ramsey = np.linspace(0.0, 30e-6, 121)
    lengths = np.asarray(RB_LENGTHS, dtype=float)
    traces = {kind: [] for kind in FITS}
    for k in range(MIX_TRACES_PER_FIT):
        for kind in FITS:
            if kind == "t1":
                truth = {"t1": rng.uniform(20e-6, 50e-6)}
                x, y = t_decay, np.exp(-t_decay / truth["t1"])
            elif kind == "echo":
                truth = {"t2_echo": rng.uniform(20e-6, 50e-6)}
                x, y = t_decay, 0.5 * (1.0 + np.exp(-t_decay / truth["t2_echo"]))
            elif kind == "ramsey":
                truth = {"t2_star": rng.uniform(8e-6, 20e-6), "detuning_hz": rng.uniform(0.2e6, 0.6e6)}
                x = t_ramsey
                y = 0.5 * (1.0 + np.exp(-x / truth["t2_star"]) * np.cos(2 * math.pi * truth["detuning_hz"] * x))
            else:
                truth = {"p": rng.uniform(0.995, 0.999)}
                x, y = lengths, 0.5 * truth["p"] ** lengths + 0.5
            y = y + rng.normal(0.0, TRACE_NOISE, y.size)
            path = trace_dir / f"{kind}_{k}.csv"
            with open(path, "w", newline="") as fh:
                fh.write(f"# seeded {kind} trace, noise sigma {TRACE_NOISE!r}\n")
                writer = csv.writer(fh)
                writer.writerow(["x", "signal"])
                writer.writerows((repr(float(a)), repr(float(b))) for a, b in zip(x, y))
            traces[kind].append((str(path), truth))
    return traces


def read_table(path: Path) -> dict:
    """Parse a scenario table (csv or json) into meta, columns and rows."""
    text = Path(path).read_text()
    if Path(path).suffix == ".json":
        payload = json.loads(text)
        return {"meta": payload["meta"], "columns": payload["columns"], "rows": payload["rows"]}
    lines = text.splitlines()
    meta = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split())
    meta["seed"] = int(meta["seed"])
    rows = [[_cell(c) for c in line.split(",")] for line in lines[2:]]
    return {"meta": meta, "columns": lines[1].split(","), "rows": rows}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _column(table: dict, name: str) -> list:
    j = table["columns"].index(name)
    return [row[j] for row in table["rows"]]


class TdmSweep:
    """One op: Fig. 4b at 2 levels (ideal switching) and at 3 levels
    (cosine_drag, 2.6 ns cold rise time) over the seed's windows."""

    def __init__(self, inputs: dict, workdir: Path):
        self.windows = inputs["windows_ns"]
        self.reference_rows = inputs["reference_rows"]
        self.items_per_op = 2 * len(self.windows)
        self.out2 = workdir / "out" / "levels2"
        self.out3 = workdir / "out" / "levels3"
        defaults = scenarios.REGISTRY["fig4b_tdm"].defaults
        self.t_g = defaults["t_g_s"]
        self.isolation_db = defaults["isolation_db"]
        self.reference = {}

    def prepare(self) -> None:
        """Finer-step 3-level reference values for a few windows."""
        config = qubitsim.SimConfig(levels=3)
        pulse = qubitsim.calibrate_pi_pulse(self.t_g, TDM_LEVEL3["pulse_shape"], config)
        mux = chainmodel.MuxModel(isolation_db=self.isolation_db, rise_time=TDM_LEVEL3["rise_time_s"])
        fine = qubitsim.SimConfig(levels=3, dt=self.t_g / TDM_REFERENCE_STEP_DIVISOR)
        for row in self.reference_rows:
            self.reference[row] = qubitsim.tdm_experiment(self.windows[row] * 1e-9, mux, pulse, fine)

    def op(self, i: int) -> list[Path]:
        paths = scenarios.run_scenario("fig4b_tdm", {"windows_ns": self.windows}, out_dir=self.out2)
        paths += scenarios.run_scenario(
            "fig4b_tdm", {"windows_ns": self.windows, **TDM_LEVEL3}, out_dir=self.out3
        )
        return paths

    def check(self, i: int, paths: list[Path]) -> list[str]:
        problems = []
        two, three = (read_table(p) for p in paths)
        floor = chainmodel.MuxModel(isolation_db=self.isolation_db).floor_amplitude()
        for w, p_e in zip(_column(two, "window_ns"), _column(two, "p_e")):
            angle = qubitsim.windowed_rabi_angle(w * 1e-9, self.t_g, floor)
            gap = abs(p_e - math.sin(angle / 2.0) ** 2)
            if not gap <= TDM_ANALYTIC_TOL:
                problems.append(f"2-level window {w} ns: |p_e - analytic| = {gap:.3g}")
        p3 = _column(three, "p_e")
        for w, p_e in zip(_column(three, "window_ns"), p3):
            if not 0.0 <= p_e <= 1.0:
                problems.append(f"3-level window {w} ns: p_e = {p_e!r} outside [0, 1]")
        for row, ref in self.reference.items():
            gap = abs(p3[row] - ref)
            if not gap <= TDM_REFERENCE_TOL:
                problems.append(f"3-level row {row}: |p_e - finer-step reference| = {gap:.3g}")
        if len(two["rows"]) != len(self.windows) or len(p3) != len(self.windows):
            problems.append("row count differs from the window count")
        return problems


class RbPaper:
    """One op: fig4a_rb at paper scale with a scenario seed from the workload seed."""

    def __init__(self, inputs: dict, workdir: Path):
        self.seeds = inputs["scenario_seeds"]
        self.out = workdir / "out"
        self.overrides = {"lengths": list(RB_LENGTHS), "repeats": RB_REPEATS}
        n_t2 = len(scenarios.REGISTRY["fig4a_rb"].defaults["t2_star_values_s"])
        self.items_per_op = n_t2 * len(RB_LENGTHS) * RB_REPEATS

    def prepare(self) -> None:
        pass

    def op(self, i: int) -> list[Path]:
        seed = self.seeds[i % len(self.seeds)]
        return scenarios.run_scenario("fig4a_rb", self.overrides, seed=seed, out_dir=self.out)

    def check(self, i: int, paths: list[Path]) -> list[str]:
        table = next(read_table(p) for p in paths if p.stem.endswith("rb_fidelity_vs_coherence"))
        problems = []
        for fit, model in zip(_column(table, "f_1q_fit"), _column(table, "f_1q_model")):
            if not abs(fit - model) <= RB_FIDELITY_TOL:
                problems.append(f"|f_1q_fit - f_1q_model| = {abs(fit - model):.3g} > {RB_FIDELITY_TOL}")
        if not table["rows"]:
            problems.append("empty fidelity table")
        return problems


class AnalysisMix:
    """One op: a closed-form scenario (csv or json) or one fit of a trace
    read back from CSV, in the seed's shuffled order."""

    items_per_op = 1

    def __init__(self, inputs: dict, workdir: Path, golden_dir: Path):
        self.schedule = inputs["schedule"]
        self.traces = inputs["traces"]
        self.out = workdir / "out"
        self.golden_dir = golden_dir
        self.golden = {}
        self.tables = {}

    def prepare(self) -> None:
        for name in CLOSED_FORM:
            paths = sorted(self.golden_dir.glob(f"{name}_*.csv"))
            if not paths:
                raise FileNotFoundError(f"no golden table for {name} in {self.golden_dir}")
            self.golden.update((path.stem, read_table(path)) for path in paths)
            self.tables[name] = {path.stem for path in paths}

    def op(self, i: int):
        name, arg = self.schedule[i % len(self.schedule)]
        if name not in FITS:
            return scenarios.run_scenario(name, out_dir=self.out, fmt=arg)
        times, signal = fitkit.read_trace_csv(self.traces[name][arg][0])
        if name == "t1":
            return fitkit.fit_t1(times, signal)
        if name == "echo":
            return fitkit.fit_echo(times, signal)
        if name == "ramsey":
            return fitkit.fit_ramsey(times, signal)
        return fitkit.fit_rb_decay(times, signal)

    def check(self, i: int, result) -> list[str]:
        name, arg = self.schedule[i % len(self.schedule)]
        if name in FITS:
            return _check_fit(name, self.traces[name][arg][1], result)
        if {path.stem for path in result} != self.tables[name]:
            return [f"{name} wrote {sorted(p.name for p in result)}, goldens are {sorted(self.tables[name])}"]
        problems = []
        for path in result:
            problems += [f"{path.name}: {p}" for p in _compare_tables(read_table(path), self.golden[path.stem])]
        return problems


def _check_fit(kind: str, truth: dict, result) -> list[str]:
    if kind == "rb":
        fitted = {"p": result.parameters["p"]}
    elif kind == "ramsey":
        fitted = {"t2_star": result[0], "detuning_hz": result[1]}
    else:
        fitted = {next(iter(truth)): result[0]}
    problems = []
    for key, true in truth.items():
        if key == "p":
            err, bound = abs(fitted[key] - true), FIT_RB_P_K * TRACE_NOISE
        elif key == "detuning_hz":
            err, bound = abs(fitted[key] / true - 1.0), FIT_DETUNING_K * TRACE_NOISE
        else:
            err, bound = abs(fitted[key] / true - 1.0), FIT_TIME_K * TRACE_NOISE
        if not err <= bound:
            problems.append(f"{kind} fit {key}: error {err:.3g} > {bound:.3g}")
    return problems


def _compare_tables(got: dict, want: dict) -> list[str]:
    problems = []
    for key in ("scenario", "seed", "config_sha256"):
        if got["meta"].get(key) != want["meta"].get(key):
            problems.append(f"meta {key}: {got['meta'].get(key)!r} != {want['meta'].get(key)!r}")
    if list(got["columns"]) != list(want["columns"]):
        problems.append(f"columns {got['columns']} != {want['columns']}")
    if len(got["rows"]) != len(want["rows"]):
        return problems + [f"{len(got['rows'])} rows, golden has {len(want['rows'])}"]
    for r, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        for a, b in zip(row, ref):
            if isinstance(a, str) or isinstance(b, str):
                ok = a == b
            else:
                ok = abs(a - b) <= GOLDEN_REL_TOL * max(abs(a), abs(b))
            if not ok:
                problems.append(f"row {r}: {a!r} != golden {b!r}")
    return problems


def build(workload: str, inputs: dict, workdir: Path, root: Path):
    if workload == "tdm_sweep":
        return TdmSweep(inputs, workdir)
    if workload == "rb_paper":
        return RbPaper(inputs, workdir)
    return AnalysisMix(inputs, workdir, root / "tests" / "golden")
