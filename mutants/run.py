"""Check that every catalogued mutant is killed by the tests it names.

Usage: python mutants/run.py

`catalogue.json` lists mutants of the package source. Each entry gives
a `name`, a `file` relative to the repository root, an `old` text that
must occur in that file exactly once, its `new` replacement and the
pytest ids in `tests` that must fail once the replacement is made.

The script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory and runs the union of the named tests there, unmutated: they
must pass. Then it applies one mutant at a time to the copy, runs that
mutant's tests, and restores the file. A mutant is killed when pytest
reports a failing test (exit status 1). It survives when the tests
pass, and it is broken when pytest ends any other way, for instance on
an import error. Every pytest run starts with an empty Hypothesis
database and draws from the seed HYPOTHESIS_SEED, so a verdict depends
neither on luck nor on the catalogue's order. Only the standard
library is used.

Exit status: 0 when every mutant is killed, 1 otherwise, 2
when the catalogue does not apply to the source. SIGTERM ends the run
with status 143 and removes the copy, as an interrupt does.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"
#: what the copy holds: the package, its tests and the pytest settings
COPIED = ("src", "tests", "pyproject.toml")
#: pytest's exit status when a test failed
TESTS_FAILED = 1
#: the seed of every Hypothesis draw, so that a kill never depends on luck
HYPOTHESIS_SEED = 0


def load() -> list[dict]:
    """Every entry, each checked against the source it mutates."""
    entries = json.loads(CATALOGUE.read_text())
    if len({e["name"] for e in entries}) != len(entries):
        raise ValueError("mutant names must be unique")
    for e in entries:
        found = (ROOT / e["file"]).read_text().count(e["old"])
        if found != 1:
            raise ValueError(
                f"{e['name']}: old text found {found} times in {e['file']}, not once"
            )
        if not e["tests"]:
            raise ValueError(f"{e['name']}: names no test that must kill it")
    return entries


def run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """Run Python in `tree` with the package copy there first on the path
    and no bytecode written."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def pytest(tree: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """Run `tests` in `tree`, with no cache written, no saved Hypothesis
    example and the fixed seed, stopping at the first failure."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    args = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider")
    return run(tree, *args, f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests)


def _exit_on_sigterm(signum, frame):
    # an exception unwinds the run: pytest's child is killed and the
    # temporary copy removed, which the default SIGTERM action skips
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        entries = load()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
                shutil.copytree(source, tree / name, ignore=ignore)
            else:
                shutil.copy2(source, tree / name)
        # an installed package must not shadow the copy
        origin = run(tree, "-c", "import membranesim; print(membranesim.__file__)")
        if not origin.stdout.startswith(str(tree / "src")):
            print(f"membranesim imports from {origin.stdout!r}", file=sys.stderr)
            return 2
        tests = sorted({t for e in entries for t in e["tests"]})
        baseline = pytest(tree, tests)
        if baseline.returncode != 0:
            print(baseline.stdout + baseline.stderr, file=sys.stderr)
            print("the named tests do not pass on the unmutated copy", file=sys.stderr)
            return 2
        survivors = []
        for e in entries:
            target = tree / e["file"]
            original = target.read_text()
            target.write_text(original.replace(e["old"], e["new"]))
            start = time.perf_counter()
            try:
                result = pytest(tree, e["tests"])
            finally:
                target.write_text(original)
            seconds = time.perf_counter() - start
            if result.returncode == TESTS_FAILED:
                verdict = "killed"
            else:
                verdict = "survived" if result.returncode == 0 else "broken"
                survivors.append(e["name"])
                print(result.stdout + result.stderr, file=sys.stderr)
            print(f"{verdict:8} {seconds:6.1f} s  {e['name']}", flush=True)
    print(f"{len(entries) - len(survivors)} of {len(entries)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
