"""Command-line scenario runner.

Verbs:
    run <file>       execute the scenario described by a JSON config
    list             print the scenario registry (text or JSON)
    validate <file>  check a config without running it

Exit codes: 0 success, 2 unknown scenario, 3 schema violation (including
unparsable or empty files), 4 downstream simulation errors and failures to
write the outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, CryomuxError
from .scenarios import REGISTRY, list_scenarios, merge_params, run_scenario

EXIT_OK = 0
EXIT_UNKNOWN_SCENARIO = 2
EXIT_SCHEMA = 3
EXIT_RUNTIME = 4


class _SchemaError(ConfigError):
    pass


class _UnknownScenarioError(CryomuxError):
    pass


def _check_seed(seed, source: str) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise _SchemaError(f"{source} must be a non-negative integer, got {seed!r}")


def _load_config(path: str) -> dict:
    """Parse a scenario file and check it: the top-level schema, the seed,
    and each parameter's name and type against the scenario's spec."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _SchemaError("scenario config must be a JSON object")
    allowed = {"scenario", "seed", "params"}
    unknown = set(cfg) - allowed
    if unknown:
        raise _SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    name = cfg.get("scenario")
    if not isinstance(name, str):
        raise _SchemaError("config must name a scenario (string key 'scenario')")
    if "seed" in cfg:
        _check_seed(cfg["seed"], "seed")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise _SchemaError("params must be an object")
    if name not in REGISTRY:
        raise _UnknownScenarioError(f"unknown scenario {name!r}")
    try:
        merge_params(REGISTRY[name], params)
    except ConfigError as exc:
        raise _SchemaError(str(exc)) from exc
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args.file)
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out_dir = args.out_dir or os.environ.get("CRYOMUX_OUT_DIR", ".")
    written = run_scenario(
        cfg["scenario"],
        overrides=cfg.get("params", {}),
        seed=seed,
        out_dir=out_dir,
        fmt=args.format,
    )
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_list(args) -> int:
    entries = list_scenarios()
    if args.format == "json":
        print(json.dumps(
            [{"name": n, "description": d} for n, d in entries], indent=2
        ))
    else:
        width = max(len(n) for n, _ in entries)
        for name, description in entries:
            print(f"{name:<{width}}  {description}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load_config(args.file)
    print(f"{args.file}: scenario {cfg['scenario']!r} ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryomux",
        description="Run desk-scale multiplexer/qubit control-chain experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("file", help="JSON scenario config")
    p_run.add_argument("--out-dir", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="validate a scenario config file")
    p_val.add_argument("file", help="JSON scenario config")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UnknownScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_SCENARIO
    except _SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (CryomuxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
