import argparse
import csv
import hashlib
import json
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from membranesim import cli, density, universal
from membranesim.cli import main


def run_cli(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_uniform_run(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        code = run_cli(
            [
                "simulate",
                "--state",
                "0.2,0.3,0.5",
                "--density",
                "uniform",
                "--samples",
                "200000",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3 and lines[0].startswith("outcome 1:")
        rows = read_csv(out)
        assert [r["outcome_index"] for r in rows] == ["1", "2", "3"]
        estimates = [float(r["p_hat"]) for r in rows]
        assert estimates == pytest.approx([0.2, 0.3, 0.5], abs=0.01)
        counts = [int(r["count"]) for r in rows]
        assert sum(counts) == 200000

    def test_byte_identical_reruns(self, tmp_path):
        digests = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            args = [
                "simulate",
                "--state",
                "0.7,0.3",
                "--samples",
                "100000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
            assert run_cli(args) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_json_format_and_schema(self, tmp_path):
        out = tmp_path / "est.json"
        code = run_cli(
            [
                "simulate",
                "--state",
                "0.5,0.5",
                "--samples",
                "65536",
                "--seed",
                "1",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "simulate"
        assert sum(o["count"] for o in payload["outcomes"]) == 65536

    def test_density_shorthand(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(
            [
                "simulate",
                "--state",
                "0.5,0.5",
                "--density",
                "cellular1d:bu",
                "--samples",
                "20000",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert float(rows[0]["p_hat"]) == 1.0

    def test_density_inline_json(self, tmp_path):
        out = tmp_path / "d.csv"
        spec = json.dumps({"type": "dirac", "points": [[0.6, 0.1, 0.3]]})
        code = run_cli(
            [
                "simulate",
                "--state",
                "0.33,0.33,0.34",
                "--density",
                spec,
                "--samples",
                "1000",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["count"] for r in rows] == ["0", "1000", "0"]

    def test_missing_seed_is_a_validation_error(self, capsys):
        code = run_cli(["simulate", "--state", "0.5,0.5"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_state_is_a_validation_error(self, capsys):
        # an overflowing weight sum leaves no numpy warning to turn into an error
        for state in ("0.5,0.6", "1e308,1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli(
                    ["simulate", "--state", state, "--seed", "1", "--samples", "10"]
                )
            assert code == 2, state

    def test_non_finite_state_is_a_validation_error(self, capsys):
        code = run_cli(
            ["simulate", "--state", "0.5,0.5,nan", "--seed", "1", "--samples", "10"]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "state, spec, key",
        [
            ("0.5,0.5", {"type": "cellular1d", "mask": 5}, "mask"),
            ("0.5,0.5", {"type": "dirac", "points": 5}, "points"),
            (
                "0.5,0.5",
                {"type": "dirac", "points": [[0.5, 0.5]], "weights": ["a"]},
                "weights",
            ),
            ("0.2,0.3,0.5", {"type": "grid", "resolution": 4, "mask": 5}, "mask"),
            (
                "0.5,0.5",
                {
                    "type": "truncated-uniform",
                    "epsilon": 0.5,
                    "control": {"type": "intervals", "breakable": 5},
                },
                "breakable",
            ),
            (
                "0.5,0.5",
                {
                    "type": "dirac",
                    "points": [[0.6, 0.4], [0.2, 0.8]],
                    "weigths": [9, 1],
                },
                "weigths",
            ),
            (
                "0.2,0.3,0.5",
                {"type": "grid", "resolution": 4, "maks": [1] * 16},
                "maks",
            ),
            ("0.5,0.5", {"type": "truncated-uniform", "epsilon": 0.5}, "control"),
            (
                "0.5,0.5",
                {
                    "type": "truncated-uniform",
                    "epsilon": 0.5,
                    "control": {"type": "centroid", "radius": 0.1},
                },
                "radius",
            ),
        ],
    )
    def test_malformed_density_spec_is_a_validation_error(
        self, monkeypatch, capsys, state, spec, key
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sampling ran before the spec was checked")

        monkeypatch.setattr(cli, "estimate", must_not_run)
        code = run_cli(
            ["simulate", "--state", state, "--density", json.dumps(spec)]
            + ["--seed", "1", "--samples", "10"]
        )
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "dirac", "points": [[0.5, 0.5]], "weights": [10**400]},
            {"type": "dirac", "points": [[10**400, 0.5]]},
        ],
        ids=["weights", "points"],
    )
    def test_an_integer_too_large_for_a_float_is_a_validation_error(
        self, capsys, spec
    ):
        code = run_cli(
            ["simulate", "--state", "0.5,0.5", "--density", json.dumps(spec)]
            + ["--seed", "1", "--samples", "10"]
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_grid_above_the_cell_bound_is_a_validation_error(self, capsys):
        spec = {"type": "grid", "resolution": 100_000}
        code = run_cli(
            ["simulate", "--state", "0.2,0.3,0.5", "--density", json.dumps(spec)]
            + ["--seed", "1", "--samples", "10"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid cells, above the bound" in captured.err

    @pytest.mark.parametrize("flag", [2, -1])
    def test_grid_mask_entry_other_than_a_flag_is_a_validation_error(
        self, capsys, flag
    ):
        spec = {"type": "grid", "resolution": 3, "mask": [flag] + [0] * 8}
        code = run_cli(
            ["simulate", "--state", "0.2,0.3,0.5", "--density", json.dumps(spec)]
            + ["--seed", "1", "--samples", "1000"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "true, false, 0 or 1" in captured.err

    def test_interval_epsilon_must_match_the_intervals(self, capsys):
        spec = {
            "type": "truncated-uniform",
            "epsilon": 0.5,
            "control": {"type": "intervals", "breakable": [[0.1, 0.2]]},
        }
        code = run_cli(
            ["simulate", "--state", "0.5,0.5", "--density", json.dumps(spec)]
            + ["--seed", "1", "--samples", "10"]
        )
        assert code == 2
        assert "disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state, text, message",
        [
            ("0.5,0.5", '{"type": "dirac",', "Expecting property name"),
            ("0.5,0.5", "[1, 2]", "unknown density type"),
            ("0.5,0.5", '{"type": "nope"}', "unknown density type"),
            ("0.2,0.3,0.5", '{"type": "grid"}', "'resolution' is missing"),
        ],
        ids=["broken-json", "list", "unknown-type", "grid-without-resolution"],
    )
    def test_unreadable_density_text_is_a_validation_error(
        self, capsys, state, text, message
    ):
        code = run_cli(
            ["simulate", "--state", state, "--density", text]
            + ["--seed", "1", "--samples", "10"]
        )
        assert code == 2
        assert message in capsys.readouterr().err


def test_a_key_error_inside_a_validated_run_is_a_runtime_failure(
    monkeypatch, capsys
):
    def lookup_fails(args):
        raise KeyError("missing")

    monkeypatch.setitem(cli._COMMANDS["identities"], "run", lookup_fails)
    assert run_cli(["identities", "--n-max", "3"]) == 3
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [-1e-17, float("nan"), float("inf")])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_sampler_row_the_ratio_rule_cannot_rank_is_a_runtime_failure(
    bad, threads, tmp_path, monkeypatch, capsys
):
    def faulty_rays(self, rng, size):
        rays = rng.standard_exponential((size, self.n_outcomes))
        rays[size // 2] = bad  # every coordinate, so +inf leaves no finite ratio
        return rays

    monkeypatch.setattr(density.UniformDensity, "sample_rays", faulty_rays)
    out = tmp_path / "est.csv"
    args = ["simulate", "--state", "0.2,0.3,0.5", "--samples", "100000"]
    args += ["--seed", "1", "--threads", threads, "--out", str(out)]
    assert run_cli(args) == 3
    assert "cannot rank" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, config",
    [
        (["simulate", "--state", "1/0,1", "--samples", "10"], None),
        (
            ["dirac-limit", "--state", "0.5,0.5", "--points", "1/0,0,1"]
            + ["--epsilons", "0.1", "--samples", "10"],
            None,
        ),
        (["simulate", "--samples", "10"], {"state": "0.5,1/0"}),
    ],
    ids=["state", "points", "config-state"],
)
def test_division_by_zero_in_a_rational_is_a_validation_error(
    args, config, tmp_path, capsys
):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    assert run_cli(args + ["--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "divides by zero" in captured.err


class TestStdoutHoldsOnlyData:
    def test_universal_exact_json(self, capsys):
        args = ["universal-exact", "--cells", "6", "--position", "2"]
        assert run_cli(args + ["--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["average"] == "2/3"
        assert "equal=true" in captured.err

    def test_simulate_csv(self, capsys):
        args = ["simulate", "--state", "0.3,0.7", "--samples", "1000", "--seed", "1"]
        assert run_cli(args) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("outcome_index,count,p_hat,ci_lo,ci_hi\n")
        assert len(list(csv.DictReader(captured.out.splitlines()))) == 2
        assert "p_hat" in captured.err


class TestOutPath:
    def test_missing_directory_fails_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("estimate ran before --out was checked")

        monkeypatch.setattr(cli, "estimate", must_not_run)
        out = tmp_path / "missing" / "x.csv"
        code = run_cli(
            ["simulate", "--state", "0.5,0.5", "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert "writable directory" in capsys.readouterr().err

    def test_existing_file_is_replaced_whole(self, tmp_path):
        out = tmp_path / "i.json"
        out.write_text("stale line\n" * 10_000)
        assert run_cli(["identities", "--n-max", "3", "--out", str(out)]) == 0
        assert read_json(out)["n_max"] == 3
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "i.json"
        out.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        assert run_cli(["identities", "--n-max", "3", "--out", str(out)]) == 3
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]


class TestJsonHook:
    def test_fractions_print_as_text(self, capsys):
        args = argparse.Namespace(format="json", out=None)
        cli._write_output({"a": Fraction(3, 5), "b": Fraction(2)}, [], args)
        assert json.loads(capsys.readouterr().out) == {"a": "3/5", "b": "2"}

    def test_anything_else_is_an_error(self):
        args = argparse.Namespace(format="json", out=None)
        with pytest.raises(TypeError):
            cli._write_output({"a": object()}, [], args)


class TestUniversalExact:
    def test_single_query(self, tmp_path, capsys):
        out = tmp_path / "u.json"
        code = run_cli(
            ["universal-exact", "--cells", "10", "--position", "7", "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["average"] == "3/10"
        assert payload["uniform"] == "3/10"
        assert payload["equal"] is True
        assert "equal=true" in capsys.readouterr().out

    def test_table(self, tmp_path):
        out = tmp_path / "table.json"
        code = run_cli(
            ["universal-exact", "--cells", "8", "--table", "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out)
        assert all(row["equal"] for row in payload["rows"])

    def test_position_required_without_table(self, capsys):
        assert run_cli(["universal-exact", "--cells", "6"]) == 2

    @pytest.mark.parametrize(
        "extra, option",
        [(["--position", "1"], "--position"), (["--target", "right"], "--target")],
    )
    def test_table_rejects_an_option_it_does_not_read(
        self, extra, option, capsys, monkeypatch
    ):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before validating the options")

        monkeypatch.setattr(universal, "_mask_counts", no_enumeration)
        assert run_cli(["universal-exact", "--cells", "3", "--table", *extra]) == 2
        captured = capsys.readouterr()
        assert option in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("cells", ["1", "41", "42"])
    def test_table_size_out_of_range(self, cells, capsys):
        assert run_cli(["universal-exact", "--cells", cells, "--table"]) == 2
        captured = capsys.readouterr()
        assert "table size" in captured.err
        assert captured.out == ""

    def test_a_position_past_the_bound_exits_2_before_enumerating(
        self, capsys, monkeypatch
    ):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before checking the bound")

        monkeypatch.setattr(universal, "_mask_counts", no_enumeration)
        args = ["universal-exact", "--cells", "41", "--position", "3"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert "bound of 40 cells" in captured.err
        assert captured.out == ""


class TestIdentities:
    def test_table_all_pass(self, tmp_path, capsys):
        out = tmp_path / "ids.json"
        code = run_cli(["identities", "--n-max", "40", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert len(payload["rows"]) == 41
        assert all(r["equal_a"] and r["equal_b"] for r in payload["rows"])
        assert "yes" in capsys.readouterr().out

    def test_a_failed_identity_exits_3_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        real_sums = universal._binomial_sums

        def off_at_the_last_row(n, denominator):
            weighted, plain = real_sums(n, denominator)
            if n == 5:
                plain += Fraction(1, 60)  # 1/lcm(1..6)
            return weighted, plain

        monkeypatch.setattr(universal, "_binomial_sums", off_at_the_last_row)
        out = tmp_path / "ids.json"
        assert run_cli(["identities", "--n-max", "5", "--out", str(out)]) == 3
        assert "identity failed at n=5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_n_max(self, capsys):
        assert run_cli(["identities", "--n-max", "-1"]) == 2
        captured = capsys.readouterr()
        assert "non-negative" in captured.err
        assert captured.out == ""

    def test_n_max_above_the_bound_fails_before_any_work(self, monkeypatch, capsys):
        def must_not_run(n, denominator):
            raise AssertionError("an identity ran before n_max was checked")

        monkeypatch.setattr(universal, "_binomial_sums", must_not_run)
        for n_max in (universal.MAX_IDENTITY_N + 1, 100_000_000):
            assert run_cli(["identities", "--n-max", str(n_max)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(universal.MAX_IDENTITY_N) in captured.err

    def test_csv_format(self, tmp_path):
        out = tmp_path / "ids.csv"
        assert run_cli(
            ["identities", "--n-max", "5", "--format", "csv", "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert rows[3]["lhs_a"] == "17/4"
        assert rows[3]["equal_a"] == "true"


class TestApproximate:
    def test_ramp_report(self, tmp_path):
        out = tmp_path / "a.json"
        code = run_cli(
            [
                "approximate",
                "--target",
                "ramp",
                "--m",
                "64",
                "--ell",
                "64",
                "--position",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["p_exact"] == pytest.approx(0.25)
        assert payload["abs_error"] < 0.02

    def test_too_many_cells_fail_before_any_work(self, monkeypatch, capsys):
        def must_not_run(u):
            raise AssertionError("the target CDF ran before the cells were counted")

        monkeypatch.setitem(cli.APPROXIMATION_TARGETS, "ramp", must_not_run)
        args = ["approximate", "--target", "ramp", "--m", "4096", "--ell", "1025"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cells" in captured.err

    @pytest.mark.parametrize("position", ["1.5", "nan"])
    def test_bad_position_fails_before_any_work(self, position, monkeypatch, capsys):
        def must_not_run(u):
            raise AssertionError("the target CDF ran before the position was checked")

        monkeypatch.setitem(cli.APPROXIMATION_TARGETS, "ramp", must_not_run)
        args = ["approximate", "--target", "ramp", "--position", position]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "barycentric weights" in captured.err

    def test_unknown_target(self, capsys):
        # argparse rejects the choice itself, with the same exit status
        with pytest.raises(SystemExit) as exc:
            run_cli(["approximate", "--target", "ramp2"])
        assert exc.value.code == 2


class TestRobustnessCommand:
    def test_analytic_csv(self, tmp_path):
        args = ["robustness", "--state", "0.495,0.505", "--delta", "0.01,-0.01"]
        out = tmp_path / "rob.csv"
        grid = ["--epsilon-grid", "0.05,0.1,0.5,1.0"]
        assert run_cli(args + grid + ["--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert float(row["ratio"]) == pytest.approx(1.0, abs=1e-9)
        # the README sweep, whose JSON also carries the exact threshold |dx|
        out = tmp_path / "rob.json"
        grid = ["--epsilon-grid", "0.02,0.1,0.5,1.0", "--format", "json"]
        assert run_cli(args + grid + ["--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["epsilon_tilde"] == pytest.approx(0.01, abs=1e-12)
        assert payload["epsilon_tilde_exact"] is True
        ratios = [r["ratio"] for r in payload["results"]]
        assert ratios == pytest.approx([1.0] * 4, abs=1e-9)

    def test_mc_needs_seed(self, capsys):
        code = run_cli(
            [
                "robustness",
                "--state",
                "0.495,0.505",
                "--delta",
                "0.01,-0.01",
                "--epsilon-grid",
                "0.5",
                "--method",
                "mc",
            ]
        )
        assert code == 2

    def test_analytic_needs_two_outcomes(self, capsys):
        code = run_cli(
            [
                "robustness",
                "--state",
                "0.3,0.3,0.4",
                "--delta",
                "0.01,-0.01,0",
                "--epsilon-grid",
                "0.5",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "two outcomes" in captured.err

    def test_zero_prediction_is_null_in_json_and_empty_in_csv(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        args = ["robustness", "--state", "0.3,0.3,0.4", "--delta", "0.01,-0.01,0"]
        args += ["--outcome", "3", "--epsilon-grid", "0.5,1.0", "--method", "mc"]
        args += ["--samples", "2000", "--seed", "1"]
        out = tmp_path / "rob.json"
        assert run_cli(args + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=reject)
        assert [r["ratio"] for r in payload["results"]] == [None, None]
        out = tmp_path / "rob.csv"
        assert run_cli(args + ["--format", "csv", "--out", str(out)]) == 0
        assert [r["ratio"] for r in read_csv(out)] == ["", ""]

    def test_mc_rows_carry_the_standard_error_and_json_the_stream_version(
        self, tmp_path, capsys
    ):
        args = ["robustness", "--state", "0.3,0.3,0.4", "--delta", "0.02,-0.01,-0.01"]
        args += ["--epsilon-grid", "0.5,1.0", "--samples", "20000"]
        mc = args + ["--method", "mc", "--seed", "7"]
        assert run_cli(mc + ["--format", "json", "--out", str(tmp_path / "m.json")]) == 0
        assert "standard_error=" in capsys.readouterr().out
        payload = read_json(tmp_path / "m.json")
        assert payload["stream_version"] == 2
        errors = [r["standard_error"] for r in payload["results"]]
        assert len(errors) == 2 and all(e > 0 for e in errors)
        assert run_cli(mc + ["--out", str(tmp_path / "m.csv")]) == 0
        rows = read_csv(tmp_path / "m.csv")
        assert [float(r["standard_error"]) for r in rows] == errors
        capsys.readouterr()
        # the analytic path has no stream and no sampling error
        analytic = ["robustness", "--state", "0.495,0.505", "--delta", "0.01,-0.01"]
        analytic += ["--epsilon-grid", "0.5,1.0"]
        out = tmp_path / "a.json"
        assert run_cli(analytic + ["--format", "json", "--out", str(out)]) == 0
        assert "standard_error" not in capsys.readouterr().out
        payload = read_json(out)
        assert "stream_version" not in payload
        assert all("standard_error" not in r for r in payload["results"])
        assert run_cli(analytic + ["--out", str(tmp_path / "a.csv")]) == 0
        assert "standard_error" not in read_csv(tmp_path / "a.csv")[0]

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_row_only_the_moved_state_cannot_rank_is_a_runtime_failure(
        self, bad, threads, tmp_path, monkeypatch, capsys
    ):
        # x weighs the third coordinate zero, so only the moved state reads it
        def faulty_rays(self, rng, size):
            rays = rng.standard_exponential((size, self.n_outcomes))
            rays[size // 2, 2] = bad
            return rays

        monkeypatch.setattr(density.UniformDensity, "sample_rays", faulty_rays)
        out = tmp_path / "rob.json"
        args = ["robustness", "--state", "0.5,0.5,0", "--delta=-0.01,0,0.01"]
        args += ["--epsilon-grid", "1.0", "--method", "mc", "--samples", "100000"]
        args += ["--seed", "1", "--threads", threads, "--out", str(out)]
        assert run_cli(args) == 3
        assert "cannot rank" in capsys.readouterr().err
        assert not out.exists()

    def test_rationals_parse_like_their_decimals(self, tmp_path):
        args = ["robustness", "--state", "0.495,0.505"]
        outputs = []
        for delta, grid in [("1/100,-1/100", "1/2,1"), ("0.01,-0.01", "0.5,1")]:
            out = tmp_path / f"{len(outputs)}.csv"
            extra = ["--delta", delta, "--epsilon-grid", grid, "--out", str(out)]
            assert run_cli(args + extra) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestDiracLimitCommand:
    def test_run(self, tmp_path):
        out = tmp_path / "dl.json"
        code = run_cli(
            [
                "dirac-limit",
                "--state",
                "0.333,0.333,0.334",
                "--points",
                "0.5,0.3,0.2;0.2,0.5,0.3",
                "--epsilons",
                "0.1,0.02",
                "--samples",
                "20000",
                "--seed",
                "5",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["target_distribution"] == [0.5, 0.0, 0.5]
        assert payload["results"][-1]["tv_distance"] < 0.05

    def test_overlapping_balls_fail_validation(self, capsys):
        code = run_cli(
            [
                "dirac-limit",
                "--state",
                "0.333,0.333,0.334",
                "--points",
                "0.34,0.33,0.33;0.33,0.34,0.33",
                "--epsilons",
                "0.5",
                "--samples",
                "100",
                "--seed",
                "5",
            ]
        )
        assert code == 2

    def test_epsilon_dividing_by_zero_is_a_validation_error(self, capsys):
        args = ["dirac-limit", "--state", "0.5,0.5", "--points", "0.5,0.5"]
        args += ["--epsilons", "1/0", "--samples", "10", "--seed", "1"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "divides by zero" in captured.err


SIMULATE = ["simulate", "--state", "0.5,0.5", "--seed", "1"]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"state": "0.7,0.3", "samples": 50000, "seed": 9, "format": "json"}
            )
        )
        out = tmp_path / "out.json"
        code = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["n_samples"] == 50000

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "0.7,0.3", "samples": 50000, "seed": 9}))
        out = tmp_path / "out.json"
        code = run_cli(
            [
                "simulate",
                "--config",
                str(cfg),
                "--samples",
                "10000",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_json(out)["n_samples"] == 10000

    @pytest.mark.parametrize(
        "command, config, key",
        [
            (SIMULATE, {"threads": "4"}, "threads"),
            (SIMULATE, {"samples": "1000"}, "samples"),
            (SIMULATE, {"samples": True}, "samples"),
            (["simulate", "--state", "0.5,0.5"], {"seed": 1.5}, "seed"),
            (["simulate", "--seed", "1"], {"state": [0.5, 0.5]}, "state"),
            (["identities"], {"format": "xml"}, "format"),
            (["universal-exact", "--cells", "4"], {"table": "yes"}, "table"),
            (["approximate"], {"position": "0.5"}, "position"),
        ],
    )
    def test_config_value_of_the_wrong_type(
        self, tmp_path, capsys, command, config, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(command + ["--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_config_accepts_an_integer_for_a_float_option(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"position": 1, "m": 8, "ell": 8}))
        out = tmp_path / "a.json"
        assert run_cli(["approximate", "--config", str(cfg), "--out", str(out)]) == 0

    def test_missing_config_file(self, capsys):
        code = run_cli(
            ["simulate", "--state", "0.5,0.5", "--seed", "1", "--config", "/nope.json"]
        )
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample": 5000}))
        assert run_cli(SIMULATE + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'sample'" in captured.err

    def test_nested_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        nested = tmp_path / "missing.json"
        cfg.write_text(
            json.dumps(
                {"config": str(nested), "state": "0.5,0.5", "seed": 1, "samples": 1000}
            )
        )
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'config'" in captured.err

    @pytest.mark.parametrize(
        "content", [[], ["state", "0.5,0.5"], "state", 1, None], ids=repr
    )
    def test_a_config_that_is_not_a_json_object(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        assert run_cli(SIMULATE + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config file must hold a JSON object" in captured.err

    def test_missing_required_option(self, capsys):
        assert run_cli(["universal-exact", "--position", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cells is required" in captured.err

    def test_config_supplies_a_required_option(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": 6, "position": 2}))
        out = tmp_path / "u.json"
        args = ["universal-exact", "--config", str(cfg), "--out", str(out)]
        assert run_cli(args) == 0
        assert read_json(out)["average"] == "2/3"


#: each command with only its required options, and its built-in defaults
DEFAULT_RUNS = {
    "simulate": (
        ["simulate", "--state", "0.2,0.3,0.5", "--seed", "3"],
        {"density": "uniform", "samples": 1_000_000, "format": "csv"},
    ),
    "universal-exact": (
        ["universal-exact", "--cells", "6", "--position", "2"],
        {"target": "left", "table": False, "format": "json"},
    ),
    "identities": (["identities"], {"n_max": 60, "format": "json"}),
    "approximate": (
        ["approximate"],
        {"target": "ramp", "m": 64, "ell": 64, "position": 0.5, "format": "json"},
    ),
    "robustness": (
        ["robustness", "--state", "0.495,0.505", "--delta", "0.01,-0.01"]
        + ["--epsilon-grid", "0.5,1.0"],
        {"outcome": 1, "method": "analytic", "format": "csv"},
    ),
    # the sample count matters only with --method mc
    "robustness-mc": (
        ["robustness", "--state", "0.495,0.505", "--delta", "0.01,-0.01"]
        + ["--epsilon-grid", "0.5", "--method", "mc", "--seed", "3"],
        {"samples": 200_000},
    ),
    "dirac-limit": (
        ["dirac-limit", "--state", "0.333,0.333,0.334"]
        + ["--points", "0.5,0.3,0.2;0.2,0.5,0.3", "--epsilons", "0.1", "--seed", "3"],
        {"samples": 100_000, "format": "csv"},
    ),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_RUNS))
def test_built_in_defaults(name, tmp_path):
    """A run that leaves every default unset writes the same bytes as one
    that spells the defaults out as flags, or in a config file."""
    args, defaults = DEFAULT_RUNS[name]
    args = args + ["--threads", "1"]
    flags = []
    for key, value in defaults.items():
        if value is not False:  # a flag left off is at its default
            flags += [f"--{key.replace('_', '-')}", str(value)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(defaults))
    outputs = []
    for extra in ([], flags, ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert run_cli(args + extra + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "args",
        [
            ["universal-exact", "--cells", "6", "--position", "2"],
            ["identities", "--n-max", "8"],
            ["approximate", "--m", "8", "--ell", "8"],
        ],
    )
    def test_reports_reparse(self, tmp_path, args):
        out = tmp_path / "r.json"
        assert run_cli(args + ["--format", "json", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["schema_version"] == 1
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


#: one run per sampling command, each over more than one block
SAMPLING_RUNS = {
    "simulate": ["simulate", "--state", "0.2,0.3,0.5", "--samples", "150000"],
    "robustness": [
        "robustness",
        "--state",
        "0.3,0.3,0.4",
        "--delta",
        "0.01,-0.01,0",
        "--epsilon-grid",
        "0.5",
        "--method",
        "mc",
        "--samples",
        "150000",
    ],
    "dirac-limit": [
        "dirac-limit",
        "--state",
        "0.333,0.333,0.334",
        "--points",
        "0.5,0.3,0.2;0.2,0.5,0.3",
        "--epsilons",
        "0.1",
        "--samples",
        "150000",
    ],
}


class TestThreads:
    @pytest.mark.parametrize("command", sorted(SAMPLING_RUNS))
    def test_counts_do_not_depend_on_threads(self, command, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.json"
            args = SAMPLING_RUNS[command] + ["--seed", "3", "--format", "json"]
            assert run_cli(args + ["--threads", threads, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "args",
        list(SAMPLING_RUNS.values())
        + [["universal-exact", "--cells", "6", "--position", "2"]],
        ids=lambda args: args[0],
    )
    def test_fewer_than_one_thread_is_a_validation_error(self, args, threads, capsys):
        assert run_cli(args + ["--seed", "3", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threads" in captured.err


def test_thread_env_var_sets_the_default(monkeypatch):
    from membranesim.cli import _default_threads

    monkeypatch.setenv("MEMBRANESIM_THREADS", "2")
    assert _default_threads() == 2
    monkeypatch.delenv("MEMBRANESIM_THREADS")
    assert _default_threads() >= 1


def test_default_threads_count_only_the_usable_cpus(monkeypatch):
    import os

    from membranesim.cli import _default_threads

    monkeypatch.delenv("MEMBRANESIM_THREADS", raising=False)
    # pinned to one CPU of two, as under taskset -c 0
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _default_threads() == 1
    # a platform with no affinity call falls back to the CPU count, then to 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _default_threads() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _default_threads() == 1


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_thread_env_var_below_one_is_a_validation_error(monkeypatch, capsys, value):
    monkeypatch.setenv("MEMBRANESIM_THREADS", value)
    args = ["simulate", "--state", "0.5,0.5", "--samples", "1000", "--seed", "1"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MEMBRANESIM_THREADS" in captured.err


def test_thread_flag_does_not_read_the_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("MEMBRANESIM_THREADS", "0")
    args = ["simulate", "--state", "0.5,0.5", "--samples", "1000", "--seed", "1"]
    assert run_cli(args + ["--threads", "1", "--out", str(tmp_path / "s.csv")]) == 0


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "e.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "membranesim.cli",
            "universal-exact",
            "--cells",
            "5",
            "--position",
            "2",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert read_json(out)["average"] == "3/5"


#: the README commands at small sizes, robustness also by Monte Carlo at N = 3
README_RUNS = [
    ["simulate", "--state", "0.2,0.3,0.5", "--samples", "10000", "--seed", "7"],
    ["universal-exact", "--cells", "10", "--position", "7"],
    ["universal-exact", "--cells", "8", "--table"],
    ["identities", "--n-max", "40"],
    ["approximate", "--m", "8", "--ell", "8"],
    ["robustness", "--state", "0.495,0.505", "--delta", "0.01,-0.01"]
    + ["--epsilon-grid", "0.02,0.1,0.5,1.0"],
    ["robustness", "--state", "0.3,0.3,0.4", "--delta", "0.01,-0.01,0"]
    + ["--epsilon-grid", "0.5", "--method", "mc", "--samples", "10000", "--seed", "3"],
    ["dirac-limit", "--state", "0.333,0.333,0.334"]
    + ["--points", "0.5,0.3,0.2;0.2,0.5,0.3", "--epsilons", "0.1,0.05,0.02"]
    + ["--samples", "5000", "--seed", "4"],
]

#: runs each command of argv[2] (JSON) with --out under argv[1] while any
#: import of scipy fails, and exits non-zero if one fails or scipy loads
_NO_SCIPY_CHILD = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    sys.exit("scipy imported past the blocking finder")

from membranesim import cli

runs = json.loads(sys.argv[2])
codes = [cli.main(args + ["--out", f"{sys.argv[1]}/{i}"]) for i, args in enumerate(runs)]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if any(codes) or loaded:
    sys.exit(f"exit codes {codes}, scipy modules loaded: {loaded}")
"""


def test_readme_commands_run_without_scipy(tmp_path):
    """numpy is the only runtime dependency: every README command runs, in
    a process where importing scipy fails, and never loads it."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path), json.dumps(README_RUNS)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == len(README_RUNS)


class TestCachedParser:
    """build_parser runs once per process, so no run may see another's
    flags, config values or thread count."""

    def test_runs_in_one_process_match_runs_made_alone(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples": 3000, "format": "json"}))
        simulate = ["simulate", "--state", "0.3,0.7", "--seed", "5"]
        # (argv, MEMBRANESIM_THREADS, the threads the run must use)
        runs = [
            (["identities", "--n-max", "12"], "1", None),
            (simulate + ["--threads", "2", "--config", str(config)], "1", 2),
            (simulate + ["--samples", "2000"], "1", 1),
            (simulate + ["--samples", "2000"], "0", None),
            (simulate + ["--samples", "2000"], "2", 2),
        ]
        threads_used = []
        real_estimate = cli.estimate

        def spy(*args, threads, **kwargs):
            threads_used.append(threads)
            return real_estimate(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "estimate", spy)
        together, alone = [], []
        for k, (argv, env, _) in enumerate(runs):
            monkeypatch.setenv("MEMBRANESIM_THREADS", env)
            out = tmp_path / f"together-{k}"
            code = run_cli(argv + ["--out", str(out)])
            together.append((code, out.read_bytes() if out.exists() else None))
            out = tmp_path / f"alone-{k}"
            proc = subprocess.run(
                [sys.executable, "-m", "membranesim.cli", *argv, "--out", str(out)],
                capture_output=True,
            )
            alone.append((proc.returncode, out.read_bytes() if out.exists() else None))
        assert together == alone
        assert [code for code, _ in together] == [0, 0, 0, 2, 0]
        # the config's format and samples stay with the run that named it
        assert together[1][1].startswith(b"{") and together[2][1].startswith(b"outcome")
        assert threads_used == [threads for _, _, threads in runs if threads]

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_equals_that_of_a_fresh_parser(self, command, capsys):
        # a run first, so the cached parser has parsed once
        cli.main(["simulate", "--state", "0.5,0.5", "--seed", "1", "--samples", "10"])
        capsys.readouterr()
        argv = [command, "--help"] if command else ["--help"]
        helps = []
        for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and "--help" in helps[0]

    def test_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()
