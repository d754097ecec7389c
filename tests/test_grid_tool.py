"""``tools/grid.py``'s report records and comparison."""

import copy
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rivalloc.cli import generate_instance
from rivalloc.geom import Customer, Instance, Point

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("grid", ROOT / "tools" / "grid.py")
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


def test_totals_sum_each_integer_counter_over_the_shared_reports():
    """Only reports both sides hold as solves count, not one that raised
    on either side, and float, text and unset telemetry fields are not
    counters."""
    rep = grid.record(generate_instance(8, 1, r=4.0, coord_range=16), "parametric")
    moved = copy.deepcopy(rep)
    moved["telemetry"]["decide_calls"] += 2
    error = {"error": "RuntimeError: boom"}
    line = grid.totals({"a": rep, "b": rep, "c": rep, "e": error},
                       {"a": moved, "b": rep, "d": rep, "e": rep})
    d = rep["telemetry"]["decide_calls"]
    assert line.startswith("totals: ")
    assert "decide_calls %d -> %d," % (2 * d, 2 * d + 2) in line
    counters = [item.split()[0] for item in line[len("totals: "):].split(", ")]
    assert counters == sorted(k for k, v in rep["telemetry"].items() if type(v) is int)
    assert "certified" not in counters


def test_a_raising_solve_is_recorded_as_its_error():
    """Two customers sharing x: the general-position check raises."""
    inst = Instance([Customer(Point(0.0, 0.0), 1.0), Customer(Point(0.0, 5.0), 1.0)], 1.0)
    rec = grid.record(inst, "parametric")
    assert list(rec) == ["error"] and rec["error"].startswith("DegenerateInputError: ")
    assert grid.compare({"a": grid.record(generate_instance(8, 1), "parametric")},
                        {"a": rec})[-1].startswith("FAIL ")


def test_the_features_above_avx2_under_either_naming():
    """numpy's x86 levels (``X86_V3``, ``X86_V4``) or, in older numpy, its
    single features (``AVX2``, ``AVX512F``, ``AVX512_SKX``, ...)."""
    levels = ["X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]
    have = dict.fromkeys(["X86_V2", "X86_V3", "X86_V4", "AVX512_ICL"], True)
    assert grid.features_above_avx2(levels, have) == ["X86_V4", "AVX512_ICL"]
    single = ["SSE42", "AVX2", "FMA3", "AVX512F", "AVX512CD", "AVX512_SKX", "AVX512_ICL"]
    have = dict.fromkeys(["SSE42", "AVX2", "FMA3", "AVX512F", "AVX512CD", "AVX512_SKX"], True)
    have["AVX512_ICL"] = False
    assert grid.features_above_avx2(single, have) == ["AVX512F", "AVX512CD", "AVX512_SKX"]
    assert grid.features_above_avx2(single[:3], have) == []


def small_grid_reports():
    """The grid's reports at n in {8, 12, 20}, parametric and, at n <= 12,
    intermediate, each without its witness angle."""
    reports = {}
    for name, inst, modes in itertools.takewhile(lambda g: g[1].n <= 20, grid.instances()):
        for mode in (m for m in modes if m != "brute"):
            rec = grid.record(inst, mode)
            rec.pop("witness_angle", None)
            reports[name + " " + mode] = rec
    return reports


def test_small_grid_reports_do_not_depend_on_the_simd_dispatch_level():
    """The points and the telemetry (less ``wall_time_s``) of the small
    grid solves are the same in this process and in one where
    ``NPY_DISABLE_CPU_FEATURES`` turns off every dispatched feature above
    AVX2 (``grid.features_above_avx2``): the angular index uses only
    correctly rounded operations.  The witness angle is left out, as it still depends on
    the level: the sweep's ``np.arctan2`` and ``np.arccos`` go to SIMD
    kernels that differ from the C library in the last bit (ROADMAP item
    8's open half)."""
    features = grid.features_above_avx2()
    if not features:
        pytest.skip("numpy dispatches nothing above AVX2 on this host")
    code = ("import json, sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "import test_grid_tool\n"
            "print(json.dumps([test_grid_tool.grid.features_above_avx2(),\n"
            "                  test_grid_tool.small_grid_reports()]))\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    got = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "tests")],
                         capture_output=True, text=True, env=env, timeout=600)
    assert got.returncode == 0, got.stderr
    off, there = json.loads(got.stdout)
    here = small_grid_reports()
    assert off == []
    assert len(here) == 150
    differ = grid.compare(here, there)
    assert differ[-1].startswith("grid: 150 reports, 0 differ"), "\n".join(differ)
