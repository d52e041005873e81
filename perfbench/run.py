"""Run one membranesim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-uniform --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. One process, one caller: each task starts after the previous one
returns. A batch is one pass over the workload's tasks; the run does one
untimed warm-up batch, then batches until `--seconds` have passed.

`--trace 0` reports the end-to-end metrics, medians over batches.
`--trace 1` alternates untraced and traced batches on the same seeds,
checks that their `--out` bytes agree, and reports the per-layer metrics
(medians over traced batches) plus the tracing overhead. Spans are
written to `.bench_out/trace-<workload>-seed<seed>.jsonl`.

Every output is checked after the timed section; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` (tasks that raised,
exited non-zero or failed their check) and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class PackageMissing(RuntimeError):
    pass


def load_package():
    """Import membranesim from this checkout's `src/`, nowhere else."""
    pkg_dir = ROOT / "src" / "membranesim"
    if not (pkg_dir / "__init__.py").is_file():
        raise PackageMissing(f"no membranesim sources under {pkg_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import membranesim

    if Path(membranesim.__file__).resolve().parent != pkg_dir.resolve():
        raise PackageMissing(f"imported membranesim from {membranesim.__file__}")
    return membranesim


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_eff"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def task_seed(seed: int, batch: int, task: int) -> int:
    import numpy as np

    sequence = np.random.SeedSequence(seed, spawn_key=(batch, task))
    return int(sequence.generate_state(1)[0])


@dataclass
class Batch:
    index: int
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    #: per task: ("text", output) or ("error", reason)
    results: list = field(default_factory=list)


def run_batch(workload, seed: int, index: int, traced: bool, scratch: Path) -> Batch:
    from membranesim import cli

    batch = Batch(index, traced)
    files = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    # the CLI prints summary lines; they are not part of this program's output
    with contextlib.redirect_stdout(io.StringIO()):
        for i, task in enumerate(workload.tasks):
            s = task_seed(seed, index, i)
            try:
                if task.call is not None:
                    files.append(None)
                    batch.results.append(("text", task.call(s)))
                    continue
                out = scratch / f"{'t' if traced else 'u'}{index}-{i}.json"
                code = cli.main([*task.argv, "--seed", str(s), "--out", str(out)])
                files.append(out)
                batch.results.append(
                    ("text", None) if code == 0 else ("error", f"exit {code}")
                )
            except Exception as exc:  # noqa: BLE001 - a failed task is counted
                files.append(None)
                batch.results.append(("error", f"{type(exc).__name__}: {exc}"))
    batch.wall = time.perf_counter() - t0
    batch.cpu = time.process_time() - cpu0
    for k, path in enumerate(files):
        if path is not None and batch.results[k][0] == "text":
            batch.results[k] = ("text", path.read_text())
    return batch


def check_batches(workload, batches: list[Batch]) -> dict[tuple, str]:
    """Problems found in the outputs, keyed by (batch, traced, task), so a
    task run counts once however many ways it failed."""
    problems = {}
    refs = {}
    for i, task in enumerate(workload.tasks):
        try:
            refs[i] = task.reference(task.build())
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            refs[i] = exc
    for batch in batches:
        for i, (kind, value) in enumerate(batch.results):
            task = workload.tasks[i]
            if kind == "error":
                problem = value
            elif isinstance(refs[i], Exception):
                problem = f"reference failed: {refs[i]!r}"
            else:
                try:
                    problem = task.check(json.loads(value), refs[i])
                except Exception as exc:  # noqa: BLE001 - malformed output fails
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                traced = " traced" if batch.traced else ""
                where = f"batch {batch.index}{traced}, {task.name}"
                problems[batch.index, batch.traced, i] = f"{where}: {problem}"
    return problems


def byte_mismatches(workload, untraced, traced) -> dict[tuple, str]:
    """Traced task runs whose output differs from the untraced run on the
    same seed."""
    problems = {}
    for u, t in zip(untraced, traced):
        for i, (ru, rt) in enumerate(zip(u.results, t.results)):
            if ru[0] == rt[0] == "text" and ru[1] != rt[1]:
                problems[t.index, True, i] = (
                    f"batch {t.index} traced, {workload.tasks[i].name}: "
                    "output differs from the untraced run"
                )
    return problems


def time_setup(workload_name: str, seed: int) -> float:
    """Time from spawning a fresh interpreter until it has imported the
    package and built every state, density and control of the workload.
    The child reports the moment it is ready on the system-wide monotonic
    clock, so its exit is not counted."""
    t0 = time.monotonic()
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed)]
        + ["--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(child.stdout.split()[-1]) - t0


def provenance(pkg, workload, args) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        git = []
    # a checkout that is not itself a repository has no commit of its own
    is_repo = len(git) == 2 and Path(git[0]).resolve() == ROOT
    commit = git[1] if is_repo else "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "membranesim": pkg.__version__,
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "sizes": workload.sizes,
        "why": workload.why,
        "work_per_batch": sum(t.work for t in workload.tasks),
    }


def run(args, workload) -> tuple[dict, list[str], int, list[str]]:
    """Run the workload; return metrics, problems, tasks attempted and
    extra report lines."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="out-", dir=OUT_DIR))
    try:
        batches = [run_batch(workload, args.seed, 0, False, scratch)]  # warm-up
        untraced, traced, setup_times = [], [], []
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        index = 1
        while not untraced or time.perf_counter() < deadline:
            untraced.append(run_batch(workload, args.seed, index, False, scratch))
            if tracer is None:
                # one set-up per batch spreads them over the run like the batches
                setup_times.append(time_setup(workload.name, args.seed))
            else:
                with tracer.installed(index):
                    traced.append(run_batch(workload, args.seed, index, True, scratch))
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    batches += untraced + traced
    problems = check_batches(workload, batches)
    attempted = len(batches) * len(workload.tasks)
    lines = [
        f"batches: {len(untraced)} untraced, {len(traced)} traced, plus 1 warm-up",
        "untraced batch wall_s: " + " ".join(f"{b.wall:.4f}" for b in untraced),
    ]
    if tracer is None:
        work = sum(t.work for t in workload.tasks)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(b.wall for b in untraced),
            "work_per_s": statistics.median(work / b.wall for b in untraced),
            "cpu_s": statistics.median(b.cpu for b in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        from spans import SpanIndex, hand_profile_comparison, layer_metrics, median_of

        problems = byte_mismatches(workload, untraced, traced) | problems
        per_batch = [
            layer_metrics(SpanIndex(s for s in tracer.spans if s.batch == b.index))
            for b in traced
        ]
        metrics = median_of(per_batch)
        metrics["trace.overhead_s"] = statistics.median(
            b.wall for b in traced
        ) - statistics.median(b.wall for b in untraced)
        units = {name: layer_unit(name) for name in metrics}
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        with open(trace_file, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")
        shown = trace_file.relative_to(ROOT)
        lines.append(f"spans: {len(tracer.spans)} written to {shown}")
        lines.append("hand profile vs traced (all traced batches):")
        rows = hand_profile_comparison(SpanIndex(tracer.spans))
        for quantity, hand, value in rows:
            shown = "not run here" if value is None else f"{value:.4g}"
            lines.append(f"  {quantity}: hand {hand}, traced {shown}")
    result = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    return result, list(problems.values()), attempted, lines


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the package, build the workload's inputs and exit (times set-up)",
    )
    args = parser.parse_args(argv)
    try:
        pkg = load_package()
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        for task in workload.tasks:
            task.build()
        print(f"ready {time.monotonic()!r}")
        return 0

    prov = provenance(pkg, workload, args)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    metrics, problems, attempted, lines = run(args, workload)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
