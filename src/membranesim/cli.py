"""Command-line experiment runner.

Subcommands: simulate, universal-exact, identities, approximate,
robustness, dirac-limit. Options shared by all commands: --seed,
--threads, --out, --format {csv,json}, --config. A config file is JSON
whose keys are the long option names with dashes replaced by
underscores, and each value must have the JSON type of its option
(integer, number, string, or true/false for a flag); explicit flags
override config values, config values override built-in defaults.
The --out path is checked before any work and replaced whole at the end.
Identical configuration and seed produce byte-identical output files;
JSON reports carry a schema_version field, floats are written with 17
significant digits, rationals as "p/q" and a missing value as null
(an empty CSV field).

Exit status: 0 on success, 2 when the configuration does not validate,
3 when a validated run fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .density import cellular_approximation, density_from_spec
from .montecarlo import estimate
from .robustness import dirac_limit_demo, robustness_sweep
from .simplex import BarycentricState
from .universal import (
    identity_report,
    theorem_report,
    transition_of_uniform,
    universal_average_1d,
)

SCHEMA_VERSION = 1
THREADS_ENV_VAR = "MEMBRANESIM_THREADS"

APPROXIMATION_TARGETS = {
    "uniform": lambda u: u,
    "ramp": lambda u: u * u,
    "half": lambda u: max(0.0, 2.0 * u - 1.0),
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_number(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    return float(text)


def _parse_state(text: str) -> BarycentricState:
    return BarycentricState([_parse_number(p) for p in text.split(",")])


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _parse_points(text: str) -> list[BarycentricState]:
    return [_parse_state(chunk) for chunk in text.split(";") if chunk.strip()]


def _parse_density(text: str, n_outcomes: int):
    text = text.strip()
    if text.startswith("{"):
        return density_from_spec(json.loads(text), n_outcomes)
    if ":" in text:
        kind, arg = text.split(":", 1)
        if kind == "cellular1d":
            return density_from_spec({"type": "cellular1d", "mask": arg}, n_outcomes)
        raise ValueError(f"unknown density shorthand {text!r}")
    return density_from_spec(text, n_outcomes)


def _default_threads() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        return max(1, int(env))
    return os.cpu_count() or 1


def _write_output(payload: dict, rows: list[dict], args) -> None:
    """Emit `rows` as CSV or the full `payload` as JSON, to --out or stdout."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(
                buf, fieldnames=list(rows[0].keys()), lineterminator="\n"
            )
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
        text = buf.getvalue()
    if args.out:
        # a finished file replaces the old one whole, or not at all
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, args.out)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Reject an --out path that cannot be written, before any work."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(directory, os.W_OK | os.X_OK):
        raise ValueError(f"--out {path!r} is not a file in a writable directory")


def _json_rows(rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        jrow = {}
        for key, val in row.items():
            jrow[key] = _fmt(val) if isinstance(val, Fraction) else val
        out.append(jrow)
    return out


def _payload(command: str, **extra) -> dict:
    body = {"schema_version": SCHEMA_VERSION, "command": command}
    body.update(extra)
    return body


def _cmd_simulate(args) -> int:
    state = _parse_state(args.state)
    density = _parse_density(args.density, state.n_outcomes)
    result = estimate(
        state, density, args.samples, args.seed, threads=args.threads
    )
    for line in result.summary_lines():
        print(line)
    rows = result.to_csv_rows()
    payload = _payload(
        "simulate",
        state=[float(c) for c in state.coords],
        density=args.density,
        n_samples=result.n_samples,
        seed=args.seed,
        boundary_hits=result.boundary_hits,
        outcomes=_json_rows(rows),
    )
    _write_output(payload, rows, args)
    return 0


def _cmd_universal_exact(args) -> int:
    if args.table:
        report = theorem_report(args.cells)
        rows = report["rows"]
        equal = all(r["equal"] for r in rows)
        print(
            f"mask averages match the uniform values for all n <= {args.cells}: "
            f"{'yes' if equal else 'NO'}"
        )
        payload = _payload("universal-exact", table=True, **report)
        _write_output(payload, rows, args)
        return 0
    if args.position is None:
        raise ValueError("--position is required unless --table is given")
    avg = universal_average_1d(args.cells, args.position, args.target)
    uniform = transition_of_uniform(args.cells, args.position, args.target)
    row = {
        "n_cells": args.cells,
        "position": args.position,
        "target": args.target,
        "average": avg,
        "uniform": uniform,
        "equal": avg == uniform,
    }
    print(
        f"n={args.cells} position={args.position}: average={_fmt(avg)} "
        f"uniform={_fmt(uniform)} equal={str(avg == uniform).lower()}"
    )
    payload = _payload("universal-exact", **_json_rows([row])[0])
    _write_output(payload, [row], args)
    return 0


def _cmd_identities(args) -> int:
    report = identity_report(args.n_max)
    rows = report["rows"]
    ok = all(r["equal_a"] and r["equal_b"] for r in rows)
    print(f"both identities hold for all n <= {args.n_max}: {'yes' if ok else 'NO'}")
    payload = _payload("identities", **report)
    _write_output(payload, rows, args)
    return 0


def _cmd_approximate(args) -> int:
    try:
        cdf = APPROXIMATION_TARGETS[args.target]
    except KeyError:
        raise ValueError(
            f"unknown target {args.target!r}; pick one of "
            f"{sorted(APPROXIMATION_TARGETS)}"
        ) from None
    if not 0.0 <= args.position <= 1.0:
        raise ValueError("--position must lie in [0, 1]")
    density = cellular_approximation(cdf, args.m, args.ell)
    state = BarycentricState([args.position, 1.0 - args.position])
    p_cell = float(density.region_probability(state, 1))
    p_exact = float(cdf(args.position))
    row = {
        "target": args.target,
        "m": args.m,
        "ell": args.ell,
        "position": args.position,
        "p_cell": p_cell,
        "p_exact": p_exact,
        "abs_error": abs(p_cell - p_exact),
    }
    print(
        f"target={args.target} m={args.m} ell={args.ell}: "
        f"p_cell={p_cell:.6f} p_exact={p_exact:.6f} "
        f"error={abs(p_cell - p_exact):.2e}"
    )
    payload = _payload("approximate", **row)
    _write_output(payload, [row], args)
    return 0


def _cmd_robustness(args) -> int:
    state = _parse_state(args.state)
    delta = _parse_floats(args.delta)
    grid = _parse_floats(args.epsilon_grid)
    report = robustness_sweep(
        state,
        delta,
        grid,
        outcome=args.outcome,
        method=args.method,
        n_samples=args.samples,
        seed=args.seed,
        threads=args.threads,
    )
    rows = report.rows()
    print(
        f"epsilon_tilde={report.epsilon_tilde:.6g} "
        f"({'exact' if report.epsilon_tilde_exact else 'geometry-dependent'})"
    )
    for row in rows:
        print(
            f"epsilon={row['epsilon']:.6g}: measured={row['measured']:.6g} "
            f"predicted={row['predicted']:.6g}"
        )
    payload = _payload(
        "robustness",
        outcome=report.outcome,
        epsilon_tilde=report.epsilon_tilde,
        epsilon_tilde_exact=report.epsilon_tilde_exact,
        method=report.method,
        results=rows,
    )
    _write_output(payload, rows, args)
    return 0


def _cmd_dirac_limit(args) -> int:
    state = _parse_state(args.state)
    points = _parse_points(args.points)
    epsilons = _parse_floats(args.epsilons)
    report = dirac_limit_demo(
        state, points, epsilons, args.samples, args.seed, args.threads
    )
    rows = report.rows()
    for row in rows:
        print(f"epsilon={row['epsilon']:.6g}: tv={row['tv_distance']:.6g}")
    payload = _payload(
        "dirac-limit",
        target_distribution=list(report.target_distribution),
        distributions=[list(d) for d in report.distributions],
        results=rows,
    )
    _write_output(payload, rows, args)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "universal-exact": _cmd_universal_exact,
    "identities": _cmd_identities,
    "approximate": _cmd_approximate,
    "robustness": _cmd_robustness,
    "dirac-limit": _cmd_dirac_limit,
}

#: per-command defaults applied after flags and config file
_DEFAULTS = {
    "simulate": {"density": "uniform", "samples": 1_000_000, "format": "csv"},
    "universal-exact": {"target": "left", "table": False, "format": "json"},
    "identities": {"n_max": 60, "format": "json"},
    "approximate": {
        "target": "ramp",
        "m": 64,
        "ell": 64,
        "position": 0.5,
        "format": "json",
    },
    "robustness": {
        "outcome": 1,
        "method": "analytic",
        "samples": 200_000,
        "format": "csv",
    },
    "dirac-limit": {"samples": 100_000, "format": "csv"},
}

_STOCHASTIC = {
    "simulate": lambda a: True,
    "robustness": lambda a: a.method == "mc",
    "dirac-limit": lambda a: True,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with option defaults")
    common.add_argument("--seed", type=int, help="RNG seed (stochastic commands)")
    common.add_argument("--threads", type=int, help="worker threads")
    common.add_argument("--out", help="output file path (default: stdout)")
    common.add_argument("--format", choices=["csv", "json"], help="output format")

    parser = argparse.ArgumentParser(
        prog="membranesim",
        description="Simulate and verify breakable-membrane measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common])
    p.add_argument("--state", help="comma-separated barycentric weights")
    p.add_argument("--density", help="density spec (keyword, shorthand or JSON)")
    p.add_argument("--samples", type=int, help="number of breaking points")

    p = sub.add_parser("universal-exact", parents=[common])
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--position", type=int)
    p.add_argument("--target", choices=["left", "right"])
    p.add_argument("--table", action="store_true", default=None)

    p = sub.add_parser("identities", parents=[common])
    p.add_argument("--n-max", type=int, dest="n_max")

    p = sub.add_parser("approximate", parents=[common])
    p.add_argument("--target", choices=sorted(APPROXIMATION_TARGETS))
    p.add_argument("--m", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--position", type=float)

    p = sub.add_parser("robustness", parents=[common])
    p.add_argument("--state")
    p.add_argument("--delta", help="comma-separated perturbation, sums to zero")
    p.add_argument("--outcome", type=int)
    p.add_argument("--epsilon-grid", dest="epsilon_grid")
    p.add_argument("--method", choices=["analytic", "mc"])
    p.add_argument("--samples", type=int)

    p = sub.add_parser("dirac-limit", parents=[common])
    p.add_argument("--state")
    p.add_argument("--points", help="semicolon-separated states")
    p.add_argument("--epsilons", help="comma-separated epsilon sequence")
    p.add_argument("--samples", type=int)

    return parser


_REQUIRED = {
    "simulate": ["state"],
    "universal-exact": [],
    "identities": [],
    "approximate": [],
    "robustness": ["state", "delta", "epsilon_grid"],
    "dirac-limit": ["state", "points", "epsilons"],
}


#: JSON types a config value may take, by the option's parser type
_CONFIG_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _command_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    # argparse exposes a subcommand's options only through private attributes
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _check_config(config: dict, actions: dict) -> None:
    """Reject config values whose JSON type does not fit the option."""
    for key, value in config.items():
        action = actions.get(key)
        if action is None:
            continue
        expected = (bool,) if action.nargs == 0 else _CONFIG_TYPES[action.type]
        if not isinstance(value, expected) or (
            isinstance(value, bool) and bool not in expected
        ):
            names = " or ".join(t.__name__ for t in expected)
            raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {key!r} must be one of {list(action.choices)}, "
                f"got {value!r}"
            )


def _apply_config_and_defaults(args: argparse.Namespace, actions: dict) -> None:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        _check_config(config, actions)
    defaults = dict(_DEFAULTS.get(args.command, {}))
    defaults.setdefault("threads", _default_threads())
    for key, value in vars(args).items():
        if value is None:
            if key in config:
                setattr(args, key, config[key])
            elif key in defaults:
                setattr(args, key, defaults[key])
    for key in _REQUIRED[args.command]:
        if getattr(args, key, None) is None:
            raise ValueError(f"--{key.replace('_', '-')} is required")
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    needs_seed = _STOCHASTIC.get(args.command)
    if needs_seed and needs_seed(args) and args.seed is None:
        raise ValueError("a --seed is mandatory for stochastic commands")
    if args.out:
        _check_out(args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_and_defaults(args, _command_actions(parser, args.command))
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        command = _COMMANDS[args.command]
    except KeyError:
        print(f"error: unknown command {args.command!r}", file=sys.stderr)
        return 2
    try:
        return command(args)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
