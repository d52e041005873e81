"""Every pinned output of the package, in one table.

Each entry runs one command in process and checks the JSON it writes
to `--out`: the sha256 of the bytes, or the outcome counts and boundary
hits. The exact entries also check that every row reports `equal`, and
the sampling entries marked so write the same bytes at 1 and 2 threads.

A change that moves a stream on purpose edits the entry's expected value
here, which a failure prints as observed, and bumps `stream_version` in
the reports whose stream moved.
"""

import hashlib
import json

import pytest

from membranesim import cli

UNIFORM_N3 = ["simulate", "--state", "0.2,0.3,0.5", "--samples", "1000000"]
#: the README simulate run's counts, which an epsilon = 1 truncation shares:
#: it draws the same uniform stream
UNIFORM_N3_COUNTS = ([200409, 300217, 499374], 0)


#: (argv, the sha256 of the --out bytes or (counts, boundary hits), whether
#: --threads 1 and 2 must write the same bytes), one entry per pinned output
PINS = [
    pytest.param(
        UNIFORM_N3 + ["--density", "uniform", "--seed", "7"],
        UNIFORM_N3_COUNTS,
        True,
        id="uniform-1M",
    ),
    pytest.param(
        ["universal-exact", "--cells", "24", "--table"],
        "b501cfaeaa7d73010e5302a7ae19d312a315742e98916df25ffcba81f9e4088a",
        False,
        id="table-24",
    ),
    pytest.param(
        ["universal-exact", "--cells", "24", "--position", "6"],
        "9a56b32e8a9be2d49480edb0f16f389bc98d33ccc0288dbcd1575c24977bd7fc",
        False,
        id="position-24",
    ),
    # the enumeration bound, MAX_ENUMERABLE_CELLS = 40
    pytest.param(
        ["universal-exact", "--cells", "40", "--table"],
        "d41c0b91fc98a4490f499d0d8afebf16c63665b7dcfa70f1578edeab60bc335a",
        False,
        id="table-40",
    ),
    pytest.param(
        ["universal-exact", "--cells", "40", "--position", "13"],
        "f7c870b48514a6783fe9d32bfce0e084f017bbaf155e2ff5d285c9d509dc2181",
        False,
        id="position-40",
    ),
    # both identities at MAX_IDENTITY_N = 600: the reduced fractions
    pytest.param(
        ["identities", "--n-max", "600"],
        "6cf3aeebe10c9ded8ac9d607e37871bd0e759efd816c65d0b55d037dc2020c9b",
        False,
        id="identities-600",
    ),
    # a paired sweep at N = 3: one stream per epsilon for both states
    pytest.param(
        ["robustness", "--state", "0.3,0.3,0.4", "--delta", "0.02,-0.01,-0.01"]
        + ["--epsilon-grid", "0.5,1.0", "--method", "mc", "--samples", "200000"]
        + ["--seed", "7"],
        "96c6c9fe194c539ecd59a0d3174ccae1f77e26e1fb8cb20d10886d2ccebea485",
        True,
        id="sweep-mc",
    ),
    # the ball sampler's stream
    pytest.param(
        ["dirac-limit", "--state", "0.333,0.333,0.334"]
        + ["--points", "0.5,0.3,0.2;0.2,0.5,0.3", "--epsilons", "0.1,0.05,0.02"]
        + ["--samples", "50000", "--seed", "4"],
        "6374541c5af42f30444ec75a8dc7e2240760a0f572915ed49ab78ae23aa30428",
        False,
        id="dirac-limit",
    ),
    # the grid's weighted cell picks and rejection rounds
    pytest.param(
        ["simulate", "--state", "0.2,0.3,0.5", "--samples", "262144", "--seed", "7"]
        + ["--density", '{"type":"grid","resolution":16}'],
        ([52262, 78542, 131340], 0),
        False,
        id="grid-r16",
    ),
    # an N = 2 intervals truncation's weighted interval picks
    pytest.param(
        ["simulate", "--state", "0.4,0.6", "--samples", "1000003", "--seed", "7"]
        + ["--density", '{"type":"truncated-uniform","epsilon":0.6,"control":'
           '{"type":"intervals","breakable":[[0,0.1],[0.3,0.35],[0.55,1]]}}'],
        ([250495, 749508], 0),
        False,
        id="intervals",
    ),
    # an epsilon = 1 truncation leaves nothing unbreakable
    pytest.param(
        UNIFORM_N3
        + ["--seed", "7", "--density", '{"type":"truncated-uniform","epsilon":1,'
           '"control":{"type":"centroid"}}'],
        UNIFORM_N3_COUNTS,
        False,
        id="truncated-full",
    ),
    # N = 6 with a zero weight, which classifies that column as +inf
    pytest.param(
        ["simulate", "--state", "0.05,0.1,0,0.25,0.3,0.3"]
        + ["--samples", "1000000", "--seed", "7"],
        ([50140, 100233, 0, 249608, 299717, 300302], 0),
        True,
        id="zero-weight",
    ),
    # 1000003 samples end mid-tile and mid-block
    pytest.param(
        ["simulate", "--state", "0.1,0.15,0.2,0.05,0.3,0.2", "--density", "uniform"]
        + ["--samples", "1000003", "--seed", "7"],
        ([100181, 150159, 200073, 50273, 299100, 200217], 0),
        True,
        id="mid-tile",
    ),
    # x ties three ways, (0.4, 0.225, 0.375) ties outcomes 2 and 3
    pytest.param(
        ["simulate", "--state", "0.2,0.3,0.5", "--samples", "1000003", "--seed", "7"]
        + ["--density", '{"type":"dirac","points":[[0.2,0.3,0.5],'
           '[0.4,0.225,0.375],[0.5,0.3,0.2],[0.1,0.6,0.3]]}'],
        ([499767, 249788, 250448], 500283),
        True,
        id="ties",
    ),
]


def _run(argv, out):
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("argv, expected, across_threads", PINS)
def test_pin(argv, expected, across_threads, tmp_path):
    if across_threads:
        data = _run(argv + ["--threads", "1"], tmp_path / "1")
        assert _run(argv + ["--threads", "2"], tmp_path / "2") == data
    else:
        data = _run(argv, tmp_path / "out")
    if isinstance(expected, str):
        observed = hashlib.sha256(data).hexdigest()
    else:
        payload = json.loads(data)
        observed = ([r["count"] for r in payload["outcomes"]], payload["boundary_hits"])
    assert observed == expected, f"observed {observed!r}"
    if argv[0] in ("universal-exact", "identities"):
        payload = json.loads(data)
        rows = payload.get("rows", [payload])
        flags = [v for row in rows for key, v in row.items() if key.startswith("equal")]
        assert flags and all(flag is True for flag in flags)
