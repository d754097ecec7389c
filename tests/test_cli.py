"""Tests for the command line interface."""

import json
import os
import re
import subprocess
import sys

import pytest

import support
from rivalloc import cli, vprune
from rivalloc.centroid import solve_centroid
from rivalloc.geom import Point
from rivalloc.medianoid import solve_medianoid
from rivalloc.cli import (
    EXIT_DEGENERATE,
    EXIT_GEN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    generate_instance,
    main,
)


def write_instance(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


GOOD = {
    "r": 2.0,
    "customers": [
        {"x": 0, "y": 0, "w": 1},
        {"x": 7, "y": 3, "w": 2},
        {"x": 3, "y": 8, "w": 1},
    ],
}


class TestGen:
    def test_writes_a_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--n", "6", "--seed", "3", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["r"] == 2.0
        assert len(data["customers"]) == 6
        for c in data["customers"]:
            assert set(c) == {"x", "y", "w"}

    def test_deterministic_per_seed(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "--n", "8", "--seed", "11", "--out", str(a)])
        main(["gen", "--n", "8", "--seed", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_distinct_coordinates(self):
        inst = generate_instance(10, seed=4, r=2.0)
        xs = [c.site.x for c in inst.customers]
        ys = [c.site.y for c in inst.customers]
        assert len(set(xs)) == len(xs)
        assert len(set(ys)) == len(ys)

    def test_coordinate_budget(self, capsys):
        assert main(["gen", "--n", "60", "--seed", "1", "--coord-range", "5"]) == EXIT_GEN
        assert "cannot host" in capsys.readouterr().err

    def test_n_must_be_positive(self):
        assert main(["gen", "--n", "0", "--seed", "1"]) == EXIT_PARSE

    def test_direction_set_accepts_what_the_pair_loop_accepts(self):
        """Same draws, same acceptance: every seed gives the pair loop's
        instance."""
        for n in range(1, 61):
            for seed in (1, 2, 3):
                for coord_range in (n, 3 * n):
                    got = generate_instance(n, seed, r=2.0, coord_range=coord_range)
                    want = support.reference_generate_instance(
                        n, seed, r=2.0, coord_range=coord_range
                    )
                    assert cli.instance_to_obj(got) == cli.instance_to_obj(want), (
                        n, seed, coord_range)


class TestSolve:
    def test_solves_a_file(self, tmp_path, capsys):
        path = write_instance(tmp_path / "inst.json", GOOD)
        assert main(["solve", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["solver"] == "parametric"
        assert report["weight_loss"] >= 0.0
        assert len(report["centroid"]) == 2
        assert "telemetry" in report

    def test_matches_the_library(self, tmp_path):
        inst = generate_instance(6, seed=21, r=4.0)
        path = write_instance(tmp_path / "inst.json", cli.instance_to_obj(inst))
        out = tmp_path / "report.json"
        assert main(["solve", "--input", path, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["weight_loss"] == solve_centroid(inst).weight_loss

    @pytest.mark.parametrize("mode", ["parametric", "intermediate", "brute"])
    def test_mode_flag(self, tmp_path, capsys, mode):
        path = write_instance(tmp_path / "inst.json", GOOD)
        assert main(["solve", "--input", path, "--mode", mode]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["solver"] == mode

    def test_plot_writes_svg(self, tmp_path):
        path = write_instance(tmp_path / "inst.json", GOOD)
        svg = tmp_path / "plot.svg"
        out = tmp_path / "report.json"
        code = main(
            ["solve", "--input", path, "--out", str(out), "--plot", str(svg)]
        )
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<circle" in text

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == EXIT_PARSE
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--input", str(path)]) == EXIT_PARSE
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj",
        [
            {"customers": GOOD["customers"]},
            {"r": 2.0},
            {"r": -1.0, "customers": GOOD["customers"]},
            {"r": 2.0, "customers": []},
            {"r": 2.0, "customers": [{"x": 0, "y": 0, "w": -1}]},
        ],
    )
    def test_schema_violations(self, tmp_path, obj):
        path = write_instance(tmp_path / "bad.json", obj)
        assert main(["solve", "--input", path]) == EXIT_PARSE

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    @pytest.mark.parametrize("key", ["x", "y", "w", "r"])
    def test_non_finite_numbers_are_rejected(self, tmp_path, capsys, key, value):
        obj = json.loads(json.dumps(GOOD))
        (obj if key == "r" else obj["customers"][1])[key] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj).replace('"@"', value))
        assert main(["solve", "--input", str(path)]) == EXIT_PARSE
        assert f"field {key!r} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "customers,fragment",
        [
            ([(0, 0), (0, 5), (3, 8)], "share x coordinate"),
            ([(0, 0), (5, 0), (3, 8)], "share y coordinate"),
            ([(0, 0), (2, 2), (5, 5)], "collinear"),
        ],
    )
    def test_degenerate_instances(self, tmp_path, capsys, customers, fragment):
        obj = {
            "r": 2.0,
            "customers": [{"x": x, "y": y, "w": 1} for x, y in customers],
        }
        path = write_instance(tmp_path / "deg.json", obj)
        assert main(["solve", "--input", path]) == EXIT_DEGENERATE
        assert fragment in capsys.readouterr().err


class TestCompare:
    def test_generated_batch_agrees(self, capsys):
        assert main(["compare", "--gen-n", "5", "--seeds", "1..6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all 6 instances agree" in out
        assert "brute" in out

    def test_single_input_file(self, tmp_path, capsys):
        path = write_instance(tmp_path / "inst.json", GOOD)
        assert main(["compare", "--input", path]) == EXIT_OK
        assert "all 1 instances agree" in capsys.readouterr().out

    def test_needs_a_source(self, capsys):
        assert main(["compare"]) == EXIT_PARSE
        assert "compare needs" in capsys.readouterr().err

    def test_bad_seed_range(self, capsys):
        assert main(["compare", "--gen-n", "4", "--seeds", "5..x"]) == EXIT_PARSE


class TestInternalErrors:
    @pytest.fixture
    def failing_solver(self, monkeypatch, tmp_path):
        def solve_centroid(inst, mode="parametric"):
            raise RuntimeError("invariant broken on purpose")

        monkeypatch.setattr(cli, "solve_centroid", solve_centroid)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_solve_exits_5_with_a_reproducer(self, failing_solver, capsys):
        path = write_instance(failing_solver / "inst.json", GOOD)
        assert main(["solve", "--input", path, "--mode", "intermediate"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error in intermediate solve" in err
        repro = json.loads((failing_solver / "internal-error-inst.json").read_text())
        assert repro["instance"] == GOOD
        assert repro["mode"] == "intermediate"
        assert "invariant broken" in repro["error"]

    def test_compare_exits_5_with_a_reproducer(self, failing_solver):
        assert main(["compare", "--gen-n", "4", "--seeds", "3"]) == EXIT_INTERNAL
        repro = json.loads((failing_solver / "internal-error-seed3.json").read_text())
        assert repro["mode"] == "parametric"
        assert len(repro["instance"]["customers"]) == 4


DATA = os.path.join(os.path.dirname(__file__), "data")

# Instances written by ``rivalloc gen --n 400 --seed S --r R --coord-range C``
# on which some vertical line meets anchors of equal value that also look
# along the line at their midpoint, with the weight loss that the
# intermediate mode, which searches every candidate line, also finds.
ANCHOR_TIES = [
    ("anchor_tie_n400_seed1_r2_range800.json", 1140.0),
    ("anchor_tie_n400_seed1_r1_range400.json", 1193.0),
    ("anchor_tie_n400_seed2_r1_range800.json", 1162.0),
    ("anchor_tie_n400_seed3_r2_range400.json", 1204.0),
    ("anchor_tie_n400_seed3_r4_range400.json", 1199.0),
]


class TestRegressionInstances:
    @pytest.mark.parametrize("name", [name for name, _ in ANCHOR_TIES])
    def test_instances_regenerate_exactly(self, tmp_path, name):
        n, seed, r, coord_range = re.fullmatch(
            r"anchor_tie_n(\d+)_seed(\d+)_r(\d+)_range(\d+)\.json", name
        ).groups()
        out = tmp_path / name
        assert main(["gen", "--n", n, "--seed", seed, "--r", r,
                     "--coord-range", coord_range, "--out", str(out)]) == EXIT_OK
        with open(os.path.join(DATA, name), "rb") as f:
            assert out.read_bytes() == f.read()

    @pytest.mark.parametrize("name, loss", ANCHOR_TIES)
    def test_equal_anchor_values_resolve(self, tmp_path, monkeypatch, name, loss):
        """The tie goes to the downward anchor instead of failing the solve."""
        ties = []
        pseudo_wedge = vprune.pseudo_wedge

        def recording(inst, apex, W1, result=None):
            ties.append(W1 == result.weight_loss)
            return pseudo_wedge(inst, apex, W1, result=result)

        monkeypatch.setattr(vprune, "pseudo_wedge", recording)
        monkeypatch.chdir(tmp_path)
        path = os.path.join(DATA, name)
        out = tmp_path / "report.json"
        assert main(["solve", "--input", path, "--out", str(out)]) == EXIT_OK
        assert any(ties)
        report = json.loads(out.read_text())
        point = Point(*report["centroid"])
        assert report["weight_loss"] == loss
        assert solve_medianoid(cli.load_instance(path), point).weight_loss == loss


class TestEnvironment:
    def test_console_script_runs(self):
        got = subprocess.run(
            [sys.executable, "-m", "rivalloc.cli", "gen", "--n", "3", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert got.returncode == 0
        assert json.loads(got.stdout)["r"] == 2.0
