"""The benchmark's workloads: tasks, stated sizes, work counts and checks.

Every task is one closed-loop call into membranesim: a `cli.main(argv)`
run with `--out` in a scratch directory, the path a README command
takes, or a direct call for the two functions without a command
(`estimate_universal`, `recurrence_step_check`). Work is counted from
the task's inputs alone, never from what the program reports.

Checks run after the timed section on each task's output. Monte Carlo
results must lie within `Z` standard errors of a reference computed by
the package's exact or oracle paths, or by exact geometry here; exact
results must equal the closed forms.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: standard errors a Monte Carlo result may stray from its reference
Z = 5.0
#: worker threads of the threaded workload: two, never more than the CPUs
THREADS = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Task:
    """One call into the package.

    Exactly one of `argv` (a CLI command line without `--seed`/`--out`)
    and `call` (a function of the seed returning JSON text) is set.
    `build` constructs the task's states, densities and controls, which
    is the set-up a caller pays before running it; `reference` turns
    those into what `check(payload, ref)` compares the output against,
    returning a problem description or None.
    """

    name: str
    work: int
    check: Callable[[dict, object], str | None]
    argv: tuple[str, ...] = ()
    call: Callable[[int], str] | None = None
    build: Callable[[], object] = lambda: None
    reference: Callable[[object], object] = lambda built: built


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: str
    tasks: tuple[Task, ...]


def _options(argv) -> dict[str, object]:
    opts: dict[str, object] = {}
    for k, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else None
            opts[tok] = True if nxt is None or nxt.startswith("--") else nxt
    return opts


def work_from_argv(argv) -> int:
    """Breaking points requested (sampling commands) or nominal masks
    covered, sum of 2**n - 1 per mask average (exact commands)."""
    command, opts = argv[0], _options(argv)
    if command == "simulate":
        return int(opts["--samples"])
    if command == "robustness":
        return 2 * len(opts["--epsilon-grid"].split(",")) * int(opts["--samples"])
    if command == "dirac-limit":
        return len(opts["--epsilons"].split(",")) * int(opts["--samples"])
    if command == "universal-exact":
        n = int(opts["--cells"])
        if opts.get("--table"):
            return sum((m - 1) * ((1 << m) - 1) for m in range(2, n + 1))
        return (1 << n) - 1
    if command == "identities":
        return 0
    raise ValueError(f"no work count for command {command!r}")


def _number(text: str):
    return Fraction(text) if "/" in text else float(text)


def parse_state(text: str):
    from membranesim.simplex import BarycentricState

    return BarycentricState([_number(p) for p in text.split(",")])


def _se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _probability_problem(p_hats, refs, n: int, slack=None, ref_samples=None):
    """First estimate (from `n` draws) further than Z standard errors
    from its reference, plus the reference's own approximation `slack`.
    A reference that is itself an estimate from `ref_samples` draws is
    compared with the pooled two-sample standard error."""
    if len(p_hats) != len(refs):
        return "wrong number of outcomes"
    for i, (p_hat, ref) in enumerate(zip(p_hats, refs)):
        ref = float(ref)
        if ref_samples is None:
            se = _se(ref, n)
        else:
            pooled = (n * p_hat + ref_samples * ref) / (n + ref_samples)
            se = _se(pooled, n) * math.sqrt(1.0 + n / ref_samples)
        tol = Z * se + (float(slack[i]) if slack else 0.0)
        if abs(p_hat - ref) > tol:
            return (
                f"outcome {i + 1}: p_hat={p_hat:.6g} reference={ref:.6g} "
                f"tolerance={tol:.3g}"
            )
    return None


def _outcome_problem(payload: dict, refs, samples: int, **kw) -> str | None:
    n = payload["n_samples"]
    if n != samples:
        return f"ran {n} samples, {samples} were asked for"
    p_hats = [row["count"] / n for row in payload["outcomes"]]
    return _probability_problem(p_hats, refs, n, **kw)


# ---------------------------------------------------------------- mc-uniform

MC_UNIFORM_STATES = ("0.3,0.7", "0.2,0.3,0.5", "0.05,0.1,0.15,0.2,0.2,0.3")
MC_UNIFORM_SAMPLES = 1 << 22
MC_UNIFORM_ROUNDS = 2


def _born_check(payload, state) -> str | None:
    return _outcome_problem(payload, state.coords, MC_UNIFORM_SAMPLES)


def _simulate_task(name, state, density, samples, threads, check, **kw) -> Task:
    argv = (
        "simulate",
        "--state",
        state,
        "--density",
        density,
        "--samples",
        str(samples),
        "--threads",
        str(threads),
        "--format",
        "json",
    )
    return Task(name=name, work=work_from_argv(argv), argv=argv, check=check, **kw)


def _mc_uniform() -> Workload:
    tasks = []
    for rnd in range(1, MC_UNIFORM_ROUNDS + 1):
        for state in MC_UNIFORM_STATES:
            tasks.append(
                _simulate_task(
                    f"simulate uniform N={state.count(',') + 1} round {rnd}",
                    state,
                    "uniform",
                    MC_UNIFORM_SAMPLES,
                    THREADS,
                    _born_check,
                    build=lambda s=state: parse_state(s),
                )
            )
    return Workload(
        name="mc-uniform",
        why=(
            "README simulate path at time-to-accuracy (Wilson half-width <= 5e-4), "
            "two threads: classify_batch, uniform sampling and threading show here"
        ),
        sizes=(
            f"simulate --density uniform at N=2,3,6, {MC_UNIFORM_SAMPLES} samples "
            f"each, {MC_UNIFORM_ROUNDS} rounds, --threads {THREADS}"
        ),
        tasks=tuple(tasks),
    )


# ------------------------------------------------------------- mc-structured

GRID_STATE = "0.2,0.3,0.5"
GRID_DENSITY = {"type": "grid", "resolution": 16}
GRID_SAMPLES = 1 << 18
CELLULAR_STATE = "101/250,149/250"
CELLULAR_DENSITY = "cellular1d:" + "bub" * 40
DIRAC_STATE = "0.2,0.3,0.5"
DIRAC_DENSITY = {
    "type": "dirac",
    "points": [[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]],
    "weights": [5, 3, 2],
}
TRUNC_STATE = "0.1,0.2,0.3,0.4"
TRUNC_DENSITY = {
    "type": "truncated-uniform",
    "epsilon": 0.3,
    "control": {"type": "centroid"},
}
STRUCTURED_SAMPLES = 1 << 20
ROBUST_STATE = "0.3,0.3,0.4"
ROBUST_DELTA = "0.02,-0.01,-0.01"
ROBUST_GRID = "0.5,0.6,0.7,0.8,0.9,1.0"
ROBUST_SAMPLES = 200_000
DIRAC_LIMIT_STATE = "0.333,0.333,0.334"
DIRAC_LIMIT_POINTS = "0.5,0.3,0.2;0.2,0.5,0.3"
DIRAC_LIMIT_EPSILONS = "0.1,0.05,0.02"
DIRAC_LIMIT_SAMPLES = 200_000
DIRAC_LIMIT_REFERENCE_DRAWS = 1 << 20
UNIVERSAL_X1 = Fraction(7, 20)
UNIVERSAL_CELLS = 20
UNIVERSAL_DRAWS = 1 << 20
#: finer lattice used to bound the grid reference's own lattice error
GRID_REFINEMENT = 16
#: uniform draws behind the independent truncated-centroid reference
TRUNC_REFERENCE_DRAWS = 1 << 22


def _build_simulate(state_text, spec):
    def build():
        from membranesim.density import density_from_spec

        state = parse_state(state_text)
        if isinstance(spec, str) and spec.startswith("cellular1d:"):
            spec_dict = {"type": "cellular1d", "mask": spec.split(":", 1)[1]}
        else:
            spec_dict = spec
        return state, density_from_spec(spec_dict, state.n_outcomes)

    return build


def _grid_reference(built):
    """Lattice region probabilities of the grid density, and the bound
    on their lattice error: twice the change when the lattice is refined
    GRID_REFINEMENT-fold."""
    from membranesim import density

    state, grid = built
    coarse = grid.region_probabilities(state)
    saved = density.GRID_SUBSAMPLES
    density.GRID_SUBSAMPLES = saved * GRID_REFINEMENT
    try:
        fine = density.CellularGridDensity(
            grid.n_outcomes, grid.resolution
        ).region_probabilities(state)
    finally:
        density.GRID_SUBSAMPLES = saved
    slack = [2.0 * abs(float(c) - float(f)) for c, f in zip(coarse, fine)]
    return coarse, slack


def _trunc_reference(built):
    """Collapse probabilities under the centroid truncation, estimated
    independently of the package: flat Dirichlet draws kept when every
    coordinate is at least (1 - epsilon**(1/(N-1)))/N, classified by the
    ratio rule. Returns the probabilities and the number of kept draws."""
    import numpy as np

    state, _rho = built
    x = state.coords
    n = len(x)
    t = TRUNC_DENSITY["epsilon"] ** (1.0 / (n - 1))
    rng = np.random.default_rng(20140110)
    draws = rng.dirichlet(np.ones(n), size=TRUNC_REFERENCE_DRAWS)
    kept = draws[draws.min(axis=1) >= (1.0 - t) / n]
    counts = np.bincount((kept / x).argmin(axis=1), minlength=n)
    return counts / len(kept), len(kept)


def _exact_reference(built):
    state, rho = built
    return rho.region_probabilities(state)


def _robust_build():
    from membranesim.density import CentroidNeighborhood

    x = parse_state(ROBUST_STATE)
    controls = [CentroidNeighborhood(3, float(e)) for e in ROBUST_GRID.split(",")]
    return x, controls


def _polygon_area(poly) -> float:
    return 0.5 * abs(
        sum(
            poly[k][0] * poly[k - 1][1] - poly[k - 1][0] * poly[k][1]
            for k in range(len(poly))
        )
    )


def _clip(subject, clip):
    """Part of convex polygon `subject` inside counter-clockwise convex
    polygon `clip` (Sutherland-Hodgman)."""
    out = list(subject)
    for k in range(len(clip)):
        (ax, ay), (bx, by) = clip[k - 1], clip[k]
        inp, out = out, []

        def side(p):
            return (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)

        for j in range(len(inp)):
            prev, cur = inp[j - 1], inp[j]
            sp, sc = side(prev), side(cur)
            if (sp < 0.0) != (sc < 0.0):
                t = sp / (sp - sc)
                out.append(
                    (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                )
            if sc >= 0.0:
                out.append(cur)
        if not out:
            break
    return out


def centroid_truncated_probability(x, epsilon: float, outcome: int) -> float:
    """Exact collapse probability of a three-outcome state under the
    uniform density truncated to the centroid neighbourhood of measure
    fraction `epsilon`: area of region `outcome` inside the breakable
    triangle over the triangle's area, in the (x1, x2) chart."""
    t = math.sqrt(epsilon)
    c = 1.0 / 3.0
    verts = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    zone = [(c + t * (vx - c), c + t * (vy - c)) for vx, vy in verts]
    region = list(verts)
    region[outcome - 1] = (float(x.coords[0]), float(x.coords[1]))
    return _polygon_area(_clip(region, zone)) / _polygon_area(zone)


def _robust_reference(built):
    from membranesim.robustness import perturb_state

    x, _controls = built
    moved = perturb_state(x, [float(d) for d in ROBUST_DELTA.split(",")])
    refs = []
    for eps in ROBUST_GRID.split(","):
        p_a = centroid_truncated_probability(x, float(eps), 1)
        p_b = centroid_truncated_probability(moved, float(eps), 1)
        se = math.hypot(_se(p_a, ROBUST_SAMPLES), _se(p_b, ROBUST_SAMPLES))
        refs.append((abs(p_b - p_a), se))
    return refs


def _robust_check(payload, refs) -> str | None:
    rows = payload["results"]
    if len(rows) != len(refs):
        return "wrong number of epsilon rows"
    for row, (exact, se) in zip(rows, refs):
        if row["epsilon"] < payload["epsilon_tilde"]:
            return "epsilon grid dips below epsilon_tilde"
        if abs(row["measured"] - exact) > Z * se:
            return (
                f"epsilon={row['epsilon']}: measured={row['measured']:.6g} "
                f"exact={exact:.6g} (ratio to predicted {exact / row['predicted']:.4f})"
            )
    return None


def _dirac_limit_build():
    from membranesim.density import BallComplement

    points = [parse_state(p) for p in DIRAC_LIMIT_POINTS.split(";")]
    return parse_state(DIRAC_LIMIT_STATE), [
        BallComplement(points, float(e)) for e in DIRAC_LIMIT_EPSILONS.split(",")
    ]


def _dirac_limit_reference(built):
    """Outcome distributions along the epsilon sequence, estimated
    independently of the package: uniform draws in the balls of measure
    fraction epsilon/k around the points, classified by the ratio rule."""
    import numpy as np

    x, _controls = built
    points = np.array([parse_state(p).coords for p in DIRAC_LIMIT_POINTS.split(";")])
    # orthonormal basis of the plane sum(y) = 1
    basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    rng = np.random.default_rng(20140110)
    m = DIRAC_LIMIT_REFERENCE_DRAWS
    refs = []
    for eps in DIRAC_LIMIT_EPSILONS.split(","):
        area = float(eps) / len(points) * math.sqrt(3.0) / 2.0
        radius = math.sqrt(area / math.pi)
        r = radius * np.sqrt(rng.random(m))
        theta = rng.random(m) * 2.0 * math.pi
        ys = (
            points[rng.integers(0, len(points), m)]
            + (r * np.cos(theta))[:, None] * basis[0]
            + (r * np.sin(theta))[:, None] * basis[1]
        )
        refs.append(np.bincount((ys / x.coords).argmin(axis=1), minlength=3) / m)
    return refs


def _dirac_limit_check(payload, refs) -> str | None:
    n, m = DIRAC_LIMIT_SAMPLES, DIRAC_LIMIT_REFERENCE_DRAWS
    dists = payload["distributions"]
    if len(dists) != len(refs):
        return "wrong number of epsilon rows"
    for eps, dist, ref in zip(DIRAC_LIMIT_EPSILONS.split(","), dists, refs):
        problem = _probability_problem(dist, ref, n, ref_samples=m)
        if problem:
            return f"epsilon={eps} {problem}"
    tvs = [row["tv_distance"] for row in payload["results"]]
    # the total variation moves by at most half the summed outcome errors
    ses = [0.5 * sum(_se(p, n) for p in dist) for dist in dists]
    for k in range(len(tvs) - 1):
        if tvs[k] - tvs[k + 1] <= Z * math.hypot(ses[k], ses[k + 1]):
            return f"total variation does not fall with epsilon: {tvs}"
    return None


def _universal_call(seed: int) -> str:
    from membranesim import montecarlo
    from membranesim.simplex import BarycentricState

    x = BarycentricState([UNIVERSAL_X1, 1 - UNIVERSAL_X1])
    return montecarlo.estimate_universal(
        x, UNIVERSAL_CELLS, UNIVERSAL_DRAWS, seed, threads=1
    ).to_json()


def _mc_structured() -> Workload:
    def exact_check(payload, ref):
        return _outcome_problem(payload, ref, STRUCTURED_SAMPLES)

    def grid_check(payload, ref):
        return _outcome_problem(payload, ref[0], GRID_SAMPLES, slack=ref[1])

    robust_argv = (
        "robustness",
        "--state",
        ROBUST_STATE,
        "--delta",
        ROBUST_DELTA,
        "--epsilon-grid",
        ROBUST_GRID,
        "--method",
        "mc",
        "--samples",
        str(ROBUST_SAMPLES),
        "--threads",
        "1",
        "--format",
        "json",
    )
    dirac_limit_argv = (
        "dirac-limit",
        "--state",
        DIRAC_LIMIT_STATE,
        "--points",
        DIRAC_LIMIT_POINTS,
        "--epsilons",
        DIRAC_LIMIT_EPSILONS,
        "--samples",
        str(DIRAC_LIMIT_SAMPLES),
        "--threads",
        "1",
        "--format",
        "json",
    )
    tasks = (
        _simulate_task(
            "simulate grid r16 N=3",
            GRID_STATE,
            json.dumps(GRID_DENSITY),
            GRID_SAMPLES,
            1,
            grid_check,
            build=_build_simulate(GRID_STATE, GRID_DENSITY),
            reference=_grid_reference,
        ),
        _simulate_task(
            "simulate cellular1d bub x40",
            CELLULAR_STATE,
            CELLULAR_DENSITY,
            STRUCTURED_SAMPLES,
            1,
            exact_check,
            build=_build_simulate(CELLULAR_STATE, CELLULAR_DENSITY),
            reference=_exact_reference,
        ),
        _simulate_task(
            "simulate dirac 3-point",
            DIRAC_STATE,
            json.dumps(DIRAC_DENSITY),
            STRUCTURED_SAMPLES,
            1,
            exact_check,
            build=_build_simulate(DIRAC_STATE, DIRAC_DENSITY),
            reference=_exact_reference,
        ),
        _simulate_task(
            "simulate truncated centroid eps=0.3 N=4",
            TRUNC_STATE,
            json.dumps(TRUNC_DENSITY),
            STRUCTURED_SAMPLES,
            1,
            lambda payload, ref: _outcome_problem(
                payload, ref[0], STRUCTURED_SAMPLES, ref_samples=ref[1]
            ),
            build=_build_simulate(TRUNC_STATE, TRUNC_DENSITY),
            reference=_trunc_reference,
        ),
        Task(
            name="robustness mc N=3",
            work=work_from_argv(robust_argv),
            argv=robust_argv,
            check=_robust_check,
            build=_robust_build,
            reference=_robust_reference,
        ),
        Task(
            name="dirac-limit balls",
            work=work_from_argv(dirac_limit_argv),
            argv=dirac_limit_argv,
            check=_dirac_limit_check,
            build=_dirac_limit_build,
            reference=_dirac_limit_reference,
        ),
        Task(
            name="estimate_universal n_cells=20",
            work=UNIVERSAL_DRAWS,
            call=_universal_call,
            # averaged over uniform nonzero masks, a break left of contact
            # point 7 of 20 has probability exactly 7/20
            check=lambda payload, ref: _outcome_problem(
                payload, [UNIVERSAL_X1, 1 - UNIVERSAL_X1], UNIVERSAL_DRAWS
            ),
        ),
    )
    return Workload(
        name="mc-structured",
        why=(
            "the same montecarlo/simplex path through grid, cellular, Dirac and "
            "truncated densities, robustness and estimate_universal, single-threaded"
        ),
        sizes=(
            f"--threads 1: simulate grid r16 N=3 ({GRID_SAMPLES}), cellular1d bub*40, "
            f"3-point dirac and truncated centroid eps=0.3 N=4 ({STRUCTURED_SAMPLES} "
            f"each); robustness --method mc N=3, 6 epsilons x {ROBUST_SAMPLES}; "
            f"dirac-limit 3 epsilons x {DIRAC_LIMIT_SAMPLES}; estimate_universal "
            f"n_cells={UNIVERSAL_CELLS}, {UNIVERSAL_DRAWS} draws"
        ),
        tasks=tasks,
    )


# -------------------------------------------------------------- exact-verify

TABLE_CELLS = 20
RECURRENCE_N = 20
RECURRENCE_POSITIONS = (1, 7, 13, 18)
AVERAGE_N = 24
AVERAGE_POSITIONS = (6, 18)
IDENTITIES_N_MAX = 300


def _table_check(payload, _ref) -> str | None:
    rows = payload["rows"]
    expected = [(n, i) for n in range(2, TABLE_CELLS + 1) for i in range(1, n)]
    if [(r["n_cells"], r["position"]) for r in rows] != expected:
        return "table rows do not cover every interior position"
    for r in rows:
        n, i = r["n_cells"], r["position"]
        if not r["equal"] or Fraction(r["average"]) != Fraction(n - i, n):
            return f"n={n} i={i}: average {r['average']} != {n - i}/{n}"
    return None


def _average_check(payload, _ref) -> str | None:
    n, i = payload["n_cells"], payload["position"]
    if not payload["equal"] or Fraction(payload["average"]) != Fraction(n - i, n):
        return f"n={n} i={i}: average {payload['average']} != {n - i}/{n}"
    return None


def _recurrence_call(i: int) -> Callable[[int], str]:
    def call(seed: int) -> str:
        from membranesim import universal

        return json.dumps(
            universal.recurrence_step_check(RECURRENCE_N, i).as_dict(), sort_keys=True
        )

    return call


def _recurrence_check(payload, _ref) -> str | None:
    n, i = payload["n"], payload["i"]
    total = (1 << n) - 1
    if not payload["all_match"]:
        return f"recurrence n={n} i={i} does not match"
    if Fraction(payload["sum_at_i"]) != total * Fraction(n - i, n):
        return f"recurrence n={n} i={i}: sum_at_i {payload['sum_at_i']}"
    return None


def _identities_check(payload, _ref) -> str | None:
    rows = payload["rows"]
    if [r["n"] for r in rows] != list(range(IDENTITIES_N_MAX + 1)):
        return "identity rows do not cover 0..n_max"
    for r in rows:
        n = r["n"]
        closed_a = Fraction((1 << n) * (n - 1) + 1, n + 1)
        closed_b = Fraction((1 << (n + 1)) - 1, n + 1)
        if not (r["equal_a"] and r["equal_b"]):
            return f"identity fails at n={n}"
        if Fraction(r["lhs_a"]) != closed_a or Fraction(r["lhs_b"]) != closed_b:
            return f"identity left side off its closed form at n={n}"
    return None


def _exact_verify() -> Workload:
    table_argv = (
        "universal-exact",
        "--cells",
        str(TABLE_CELLS),
        "--table",
        "--format",
        "json",
    )
    tasks = [
        Task(
            name=f"universal-exact --cells {TABLE_CELLS} --table",
            work=work_from_argv(table_argv),
            argv=table_argv,
            check=_table_check,
        )
    ]
    for i in RECURRENCE_POSITIONS:
        tasks.append(
            Task(
                name=f"recurrence_step_check({RECURRENCE_N}, {i})",
                work=(1 << RECURRENCE_N) - 1,
                call=_recurrence_call(i),
                check=_recurrence_check,
            )
        )
    for i in AVERAGE_POSITIONS:
        argv = (
            "universal-exact",
            "--cells",
            str(AVERAGE_N),
            "--position",
            str(i),
            "--format",
            "json",
        )
        tasks.append(
            Task(
                name=f"universal-exact --cells {AVERAGE_N} --position {i}",
                work=work_from_argv(argv),
                argv=argv,
                check=_average_check,
                )
        )
    argv = ("identities", "--n-max", str(IDENTITIES_N_MAX), "--format", "json")
    tasks.append(
        Task(
            name=f"identities --n-max {IDENTITIES_N_MAX}",
            work=work_from_argv(argv),
            argv=argv,
            check=_identities_check,
        )
    )
    return Workload(
        name="exact-verify",
        why=(
            "exact mask enumeration and Fraction identities, no sampling or threads: "
            "the enumeration kernel and bignum arithmetic show only here"
        ),
        sizes=(
            f"universal-exact --cells {TABLE_CELLS} --table; recurrence_step_check"
            f"({RECURRENCE_N}, i) for i in {RECURRENCE_POSITIONS}; universal-exact "
            f"--cells {AVERAGE_N} at positions {AVERAGE_POSITIONS}; identities "
            f"--n-max {IDENTITIES_N_MAX}"
        ),
        tasks=tuple(tasks),
    )


WORKLOADS = {w.name: w for w in (_mc_uniform(), _mc_structured(), _exact_verify())}
