"""Tests for the command line interface."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import support
from rivalloc import cli, vprune
from rivalloc.centroid import solve_centroid
from rivalloc.geom import Point, general_position_violation
from rivalloc.medianoid import solve_medianoid
from rivalloc.oracle import brute_medianoid
from rivalloc.cli import (
    EXIT_DEGENERATE,
    EXIT_DISAGREE,
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

    @pytest.mark.parametrize("argv, fragment", [
        (["gen", "--n", "5", "--seed", "1", "--r", "-1"], "r must be positive"),
        (["gen", "--n", "5", "--seed", "1", "--r", "nan"], "r must be positive"),
        (["gen", "--n", "5", "--seed", "1", "--r", "inf"], "r must be positive"),
        (["gen", "--n", "5", "--seed", "1", "--r", "0"], "r must be positive"),
        (["compare", "--gen-n", "5", "--seeds", "1", "--r", "0"], "r must be positive"),
        (["gen", "--n", "5", "--seed", "1", "--weight-range", "0"], "weight range"),
        (["compare", "--gen-n", "5", "--seeds", "1", "--weight-range", "0"], "weight range"),
        (["gen", "--n", "5", "--seed", "1", "--r", "1e150"], "must be below"),
        (["gen", "--n", "3", "--seed", "1", "--coord-range", "-5"], "coordinate range must be"),
        (["compare", "--gen-n", "3", "--seeds", "1", "--coord-range", "-1"],
         "coordinate range must be"),
    ])
    def test_bad_generator_arguments_exit_2(self, capsys, argv, fragment):
        """Exit code 1 is ``compare``'s disagreement; a bad argument is
        malformed input, reported without a traceback."""
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert fragment in captured.err and not captured.out

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

    @pytest.mark.parametrize("content", [b'{"r": 2, "customers": [\xff]}', b"[" * 200_000,
                                         b'{"r": ' + b"1" * 5000 + b"}"],
                             ids=["invalid-utf8", "nested-200000-deep", "5000-digit-integer"])
    def test_undecodable_file(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
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

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("make", [support.shared_x_instance, support.shared_y_instance])
    def test_the_solvers_check_exits_3(self, tmp_path, capsys, command, make):
        """``solve_centroid``'s ``DegenerateInputError`` exits 3 with the
        check's message after the file name, and nothing on stdout."""
        path = write_instance(tmp_path / "deg.json", cli.instance_to_obj(make()))
        violation = general_position_violation(cli.load_instance(path))
        assert main([command, "--input", path]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.err == f"rivalloc: {path}: {violation}\n" and not captured.out

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_a_total_weight_beyond_the_sweeps_range_exits_2(self, tmp_path, capsys, command):
        """An instance whose 3W, W the total weight, overflows is refused
        where it is read, before any solve."""
        obj = json.loads(json.dumps(GOOD))
        obj["customers"][0]["w"] = obj["customers"][1]["w"] = 1e308
        path = write_instance(tmp_path / "heavy.json", obj)
        assert main([command, "--input", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "total weight" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_a_scale_beyond_the_solvers_range_exits_2(self, tmp_path, capsys, command):
        """Coordinates at which the solvers' squared lengths overflow are
        refused where they are read, before any solve."""
        obj = {"r": 4e160, "customers": [
            {"x": -5e160, "y": 3e160, "w": 2}, {"x": -1.2e161, "y": 7e160, "w": 1},
            {"x": 4e160, "y": -9e160, "w": 3}, {"x": 9e160, "y": 1.1e161, "w": 1},
            {"x": 1e160, "y": -2e160, "w": 5}]}
        path = write_instance(tmp_path / "huge.json", obj)
        assert main([command, "--input", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "must be below" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["solve --out", "solve --plot", "gen --out"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, flag):
        """An output path that cannot be written is reported like an
        unreadable input, without a traceback."""
        command, option = flag.split()
        target = str(tmp_path / "missing" / "r.json")
        argv = {
            "solve": ["solve", "--input", write_instance(tmp_path / "inst.json", GOOD)],
            "gen": ["gen", "--n", "4", "--seed", "1"],
        }[command]
        assert main(argv + [option, target]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"rivalloc: cannot write {target}: ") and "Traceback" not in err


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

    @pytest.mark.parametrize("failure", [EXIT_DISAGREE, EXIT_INTERNAL])
    def test_instances_are_generated_one_at_a_time(self, monkeypatch, tmp_path, capsys, failure):
        """Each seed's instance is generated just before its solves: a
        disagreement or an internal error on seed 2 of 1..3 leaves seed 3
        ungenerated, after seed 1's result is printed."""
        generated = []

        def counted_generate(n, seed, *args):
            generated.append(seed)
            return generate_instance(n, seed, *args)

        def solve(inst, mode="parametric"):
            rep = solve_centroid(inst, mode)
            if generated[-1] != 2:
                return rep
            if failure == EXIT_INTERNAL:
                raise RuntimeError("broken on seed 2")
            return replace(rep, weight_loss=rep.weight_loss + (mode == "brute"))

        monkeypatch.setattr(cli, "generate_instance", counted_generate)
        monkeypatch.setattr(cli, "solve_centroid", solve)
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--gen-n", "4", "--seeds", "1..3"]) == failure
        assert generated == [1, 2]
        assert capsys.readouterr().out.startswith("seed=1 n=4 ok ")


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

    def test_any_exception_exits_5_with_its_traceback(self, monkeypatch, tmp_path, capsys):
        """A crash, not only an invariant's ``RuntimeError``, exits 5 with
        its traceback on stderr and a reproducer naming the exception, so
        ``compare`` never reads it as a disagreement."""
        def solve_centroid(inst, mode="parametric"):
            raise IndexError("crashed on purpose")

        monkeypatch.setattr(cli, "solve_centroid", solve_centroid)
        monkeypatch.chdir(tmp_path)
        path = write_instance(tmp_path / "inst.json", GOOD)
        assert main(["compare", "--input", path]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err and "IndexError: crashed on purpose" in err
        repro = json.loads((tmp_path / "internal-error-inst.json").read_text())
        assert repro["error"] == "IndexError: crashed on purpose"

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

        def recording(inst, wedge, W1):
            ties.append(W1 == solve_medianoid(inst, wedge.apex).weight_loss)
            return pseudo_wedge(inst, wedge, W1)

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


# Written by ``rivalloc gen --n 200 --seed 1 --r 1 --coord-range 200``.  A
# decision prunes on a sideward wedge at the midpoint of anchors a few
# ``inst.eps`` apart, and that midpoint (586) is lower than every
# breakpoint of its line (588): the decision's ``least`` must carry it.
MIDPOINT_WITNESS = ("midpoint_witness_n200_seed1_r1_range200.json", 586.0)


class TestMidpointWitness:
    def test_instance_regenerates_exactly(self, tmp_path):
        name = MIDPOINT_WITNESS[0]
        out = tmp_path / name
        assert main(["gen", "--n", "200", "--seed", "1", "--r", "1",
                     "--coord-range", "200", "--out", str(out)]) == EXIT_OK
        with open(os.path.join(DATA, name), "rb") as f:
            assert out.read_bytes() == f.read()

    def test_the_midpoint_optimum_is_reported(self, tmp_path, monkeypatch):
        """The oracle confirms the reported loss at the reported point, and
        a falsifier run at the golden budget finds nothing lower."""
        name, loss = MIDPOINT_WITNESS
        monkeypatch.chdir(tmp_path)
        path = os.path.join(DATA, name)
        out = tmp_path / "report.json"
        assert main(["solve", "--input", path, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["weight_loss"] == loss
        inst = cli.load_instance(path)
        assert brute_medianoid(inst, Point(*report["centroid"]))[0] == loss
        assert support.falsify(inst, loss, 1, samples=5000, rounds=8, keep=25,
                               children=20) is None


class TestEnvironment:
    def test_console_script_runs(self):
        # The child imports the package this suite imports, installed or not.
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        got = subprocess.run(
            [sys.executable, "-m", "rivalloc.cli", "gen", "--n", "3", "--seed", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert got.returncode == 0
        assert json.loads(got.stdout)["r"] == 2.0
