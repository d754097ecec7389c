"""``tools/grid.py``'s report records and comparison."""

import copy
import importlib.util
from pathlib import Path

from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point

_spec = importlib.util.spec_from_file_location(
    "grid", Path(__file__).resolve().parents[1] / "tools" / "grid.py")
grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grid)


def test_the_grid_is_330_reports():
    """210 instances in parametric mode, the 60 at n <= 12 in all three."""
    names = [(name, modes) for name, _inst, modes in grid.instances()]
    assert len(names) == 210 and len(set(n for n, _ in names)) == 210
    assert sum(map(len, (m for _, m in names))) == 330


def test_compare_names_every_field_and_fails_only_on_a_loss_or_a_gap():
    rep = grid.record(generate_instance(8, 1, r=4.0, coord_range=16), "parametric")
    assert float.fromhex(rep["weight_loss"]) > 0 and "wall_time_s" not in rep["telemetry"]
    moved = copy.deepcopy(rep)
    moved["point"][1] = (float.fromhex(rep["point"][1]) + 1.0).hex()
    moved["telemetry"]["medianoid_calls"] += 1
    lines = grid.compare({"a": rep, "b": rep}, {"a": moved, "b": rep})
    assert len(lines) == 3 and all(line.startswith("a: ") for line in lines[:2])
    assert lines[-1].startswith("grid: 2 reports, 1 differ, 0 losses moved, 0 missing")

    moved["weight_loss"] = (float.fromhex(rep["weight_loss"]) + 1.0).hex()
    assert grid.compare({"a": rep}, {"a": moved})[-1].startswith("FAIL ")
    assert grid.compare({"a": rep, "b": rep}, {"a": rep})[-1].startswith("FAIL ")


def test_a_raising_solve_is_recorded_as_its_error():
    """Two customers sharing x: the general-position check raises."""
    inst = Instance([Customer(Point(0.0, 0.0), 1.0), Customer(Point(0.0, 5.0), 1.0)], 1.0)
    rec = grid.record(inst, "parametric")
    assert list(rec) == ["error"] and rec["error"].startswith("DegenerateInputError: ")
    assert grid.compare({"a": grid.record(generate_instance(8, 1), "parametric")},
                        {"a": rec})[-1].startswith("FAIL ")
