"""Command-line experiment runner.

Subcommands: simulate, universal-exact, identities, approximate,
robustness, dirac-limit. Options shared by all commands: --seed,
--threads, --out, --format {csv,json}, --config. `_COMMANDS` is the one
table of each command's options and seed rule; the parser, the config
check, the defaults and the required and seed checks all read it.

A config file is JSON whose keys are the command's long option names
with dashes replaced by underscores (any other key is rejected), and
each value must have the JSON type of its option (integer, number,
string, or true/false for a flag); explicit flags override config
values, config values override built-in defaults, and required options
may come from either. --threads defaults to the MEMBRANESIM_THREADS
environment variable, which must be at least 1, else to the number of
CPUs this process may run on.
The --out path is checked before any work and replaced whole at the end;
without --out the data goes to stdout and the summary lines to stderr.
Identical configuration and seed produce byte-identical output files;
JSON reports carry a schema_version field, floats are written with 17
significant digits, a missing value as null (an empty CSV field), and
rationals as `str` writes a Fraction: "p/q", or the integer "p" when the
value is integral. The `robustness --method mc` JSON also carries the
sweep's stream_version.

Exit status: 0 on success, 2 when the configuration does not validate,
3 when a validated run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from .density import cellular_approximation, density_from_spec
from .montecarlo import _usable_cpus, estimate
from .robustness import SWEEP_STREAM_VERSION, dirac_limit_demo, robustness_sweep
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_number(text: str):
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{text!r} divides by zero") from None
    return float(text)


def _parse_state(text: str) -> BarycentricState:
    return BarycentricState([_parse_number(p) for p in text.split(",")])


def _parse_floats(text: str) -> list[float]:
    return [float(_parse_number(p)) for p in text.split(",")]


def _parse_points(text: str) -> list[BarycentricState]:
    return [_parse_state(chunk) for chunk in text.split(";") if chunk.strip()]


def _default_threads() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is None:
        return _usable_cpus()
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(
            f"{THREADS_ENV_VAR} must be an integer of at least 1, got {env!r}"
        )
    return threads


def _json_value(value) -> str:
    """`json.dumps` hook: a Fraction as its str, anything else an error."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_output(payload: dict, rows: list[dict], args) -> None:
    """Emit `rows` as CSV or the full `payload` as JSON, to --out or stdout."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, default=_json_value)
        text += "\n"
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


def _cmd_simulate(args):
    state = _parse_state(args.state)
    text = args.density.strip()
    spec = json.loads(text) if text.startswith("{") else text
    density = density_from_spec(spec, state.n_outcomes)
    result = estimate(
        state, density, args.samples, args.seed, threads=args.threads
    )
    for line in result.summary_lines():
        print(line)
    payload = dict(
        state=[float(c) for c in state.coords],
        density=args.density,
        seed=args.seed,
        **result.to_json_dict(),
    )
    return payload, result.to_csv_rows()


def _cmd_universal_exact(args):
    if args.table:
        # the table is the left-end average at every position
        if args.position is not None:
            raise ValueError("--position cannot be combined with --table")
        if args.target != "left":
            raise ValueError("--target right cannot be combined with --table")
        report = theorem_report(args.cells)
        rows = report["rows"]
        equal = all(r["equal"] for r in rows)
        print(
            f"mask averages match the uniform values for all n <= {args.cells}: "
            f"{'yes' if equal else 'NO'}"
        )
        return dict(table=True, **report), rows
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
    return row, [row]


def _cmd_identities(args):
    report = identity_report(args.n_max)
    rows = report["rows"]
    ok = all(r["equal_a"] and r["equal_b"] for r in rows)
    print(f"both identities hold for all n <= {args.n_max}: {'yes' if ok else 'NO'}")
    return report, rows


def _cmd_approximate(args):
    cdf = APPROXIMATION_TARGETS[args.target]
    state = BarycentricState([args.position, 1.0 - args.position])
    density = cellular_approximation(cdf, args.m, args.ell)
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
    return row, [row]


def _cmd_robustness(args):
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
        f"({'exact' if report.epsilon_tilde_exact else 'lower bound'})"
    )
    for row in rows:
        error = row.get("standard_error")
        print(
            f"epsilon={row['epsilon']:.6g}: measured={row['measured']:.6g} "
            + ("" if error is None else f"standard_error={error:.3g} ")
            + f"predicted={row['predicted']:.6g}"
        )
    payload = dict(
        outcome=report.outcome,
        epsilon_tilde=report.epsilon_tilde,
        epsilon_tilde_exact=report.epsilon_tilde_exact,
        method=report.method,
        results=rows,
    )
    if report.method == "mc":
        payload["stream_version"] = SWEEP_STREAM_VERSION
    return payload, rows


def _cmd_dirac_limit(args):
    state = _parse_state(args.state)
    points = _parse_points(args.points)
    epsilons = _parse_floats(args.epsilons)
    report = dirac_limit_demo(
        state, points, epsilons, args.samples, args.seed, args.threads
    )
    rows = report.rows()
    for row in rows:
        print(f"epsilon={row['epsilon']:.6g}: tv={row['tv_distance']:.6g}")
    payload = dict(
        target_distribution=list(report.target_distribution),
        distributions=[list(d) for d in report.distributions],
        results=rows,
    )
    return payload, rows


def _format_option(default: str) -> dict:
    return dict(choices=["csv", "json"], default=default, help="output format")


# An option gives its type (str when absent, bool for a flag), choices,
# default (called if it is a function), whether it is required, and help.
# Keys are the long option names with dashes written as underscores.
_SHARED = {
    "config": dict(help="JSON file with option defaults"),
    "seed": dict(type=int, help="RNG seed (stochastic commands)"),
    "threads": dict(
        type=int,
        default=_default_threads,
        help=f"worker threads (default: ${THREADS_ENV_VAR} or the usable CPUs)",
    ),
    "out": dict(help="output file path (default: stdout)"),
}

# A command gives its handler, which returns (payload, rows), the rule for
# when a run needs a --seed (absent: never) and its own options.
_COMMANDS = {
    "simulate": {
        "run": _cmd_simulate,
        "needs_seed": lambda args: True,
        "options": {
            "format": _format_option("csv"),
            "state": dict(required=True, help="comma-separated barycentric weights"),
            "density": dict(default="uniform", help="keyword, shorthand or JSON"),
            "samples": dict(type=int, default=1_000_000, help="breaking points"),
        },
    },
    "universal-exact": {
        "run": _cmd_universal_exact,
        "options": {
            "format": _format_option("json"),
            "cells": dict(type=int, required=True, help="number of cells"),
            "position": dict(type=int, help="contact point (unless --table)"),
            "target": dict(
                choices=["left", "right"], default="left", help="end collapsed onto"
            ),
            "table": dict(type=bool, default=False, help="all n up to --cells"),
        },
    },
    "identities": {
        "run": _cmd_identities,
        "options": {
            "format": _format_option("json"),
            "n_max": dict(type=int, default=60, help="largest n"),
        },
    },
    "approximate": {
        "run": _cmd_approximate,
        "options": {
            "format": _format_option("json"),
            "target": dict(
                choices=sorted(APPROXIMATION_TARGETS), default="ramp", help="target CDF"
            ),
            "m": dict(type=int, default=64, help="number of cells"),
            "ell": dict(type=int, default=64, help="quantisation levels"),
            "position": dict(type=float, default=0.5, help="x1 in [0, 1]"),
        },
    },
    "robustness": {
        "run": _cmd_robustness,
        "needs_seed": lambda args: args.method == "mc",
        "options": {
            "format": _format_option("csv"),
            "state": dict(required=True, help="comma-separated barycentric weights"),
            "delta": dict(required=True, help="comma-separated, sums to zero"),
            "outcome": dict(type=int, default=1, help="outcome to follow"),
            "epsilon_grid": dict(required=True, help="comma-separated epsilons"),
            "method": dict(
                choices=["analytic", "mc"], default="analytic", help="exact or sampled"
            ),
            "samples": dict(type=int, default=200_000, help="points per epsilon"),
        },
    },
    "dirac-limit": {
        "run": _cmd_dirac_limit,
        "needs_seed": lambda args: True,
        "options": {
            "format": _format_option("csv"),
            "state": dict(required=True, help="comma-separated barycentric weights"),
            "points": dict(required=True, help="semicolon-separated states"),
            "epsilons": dict(required=True, help="comma-separated epsilons"),
            "samples": dict(type=int, default=100_000, help="points per epsilon"),
        },
    },
}


def _options(command: str) -> dict:
    return {**_SHARED, **_COMMANDS[command]["options"]}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from `_COMMANDS`.

    Every call returns the same parser, so options must not be changed
    at run time. It holds no per-call state: every option's default is
    None, and config values, defaults and the MEMBRANESIM_THREADS
    fallback are applied after parsing, in `_apply_config_and_defaults`.
    """
    parser = argparse.ArgumentParser(
        prog="membranesim",
        description="Simulate and verify breakable-membrane measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        for key, opt in _options(command).items():
            if opt.get("type") is bool:
                kind = {"action": "store_true"}
            else:
                kind = {"type": opt.get("type"), "choices": opt.get("choices")}
            text = opt["help"] + (" (required)" if opt.get("required") else "")
            # every default is None, so config and table fill only unset options
            p.add_argument(_flag(key), default=None, help=text, **kind)
    return parser


#: JSON types a config value may take, by the option's type
_CONFIG_TYPES = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def _check_config(config: dict, options: dict) -> None:
    """Reject config keys that are not options, a nested `config` key, and
    values of the wrong type."""
    for key, value in config.items():
        if key == "config":
            raise ValueError("config key 'config' is not allowed: configs do not nest")
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option of this command")
        opt = options[key]
        expected = _CONFIG_TYPES[opt.get("type", str)]
        # exact types, since a JSON true would pass isinstance(value, int)
        if type(value) not in expected:
            names = " or ".join(t.__name__ for t in expected)
            raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
        if "choices" in opt and value not in opt["choices"]:
            raise ValueError(
                f"config key {key!r} must be one of {opt['choices']}, got {value!r}"
            )


def _apply_config_and_defaults(args: argparse.Namespace) -> None:
    options = _options(args.command)
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        _check_config(config, options)
    for key, opt in options.items():
        if getattr(args, key) is None:
            value = config.get(key, opt.get("default"))
            setattr(args, key, value() if callable(value) else value)
        if opt.get("required") and getattr(args, key) is None:
            raise ValueError(f"{_flag(key)} is required")
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    needs_seed = _COMMANDS[args.command].get("needs_seed")
    if needs_seed and needs_seed(args) and args.seed is None:
        raise ValueError("a --seed is mandatory for stochastic commands")
    if args.out:
        _check_out(args.out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config_and_defaults(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # without --out, stdout holds only the data; summary lines go to stderr
        with contextlib.redirect_stdout(sys.stdout if args.out else sys.stderr):
            body, rows = _COMMANDS[args.command]["run"](args)
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **body}
        _write_output(payload, rows, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
