"""The package's public API: what ``rivalloc`` exports and what README shows."""

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import rivalloc

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "Customer",
    "Instance",
    "Point",
    "DegenerateInputError",
    "general_position_violation",
    "solve_medianoid",
    "MedianoidResult",
    "solve_centroid",
    "SolveReport",
    "brute_centroid",
    "brute_medianoid",
}


def test_all_is_the_user_api():
    assert set(rivalloc.__all__) == PUBLIC
    assert len(rivalloc.__all__) == len(PUBLIC)
    for name in rivalloc.__all__:
        assert getattr(rivalloc, name) is not None


def test_medianoid_result_keeps_what_the_search_reads():
    fields = [f.name for f in dataclasses.fields(rivalloc.MedianoidResult)]
    assert fields == ["weight_loss", "witness_angle", "wedge"]
    assert isinstance(rivalloc.MedianoidResult.strong_centroid, property)
    res = rivalloc.MedianoidResult(1.0, 0.0, None)
    assert res.strong_centroid


def test_readme_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quickstart", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2


def test_the_benchmark_tools_import_against_the_package():
    """The benchmark's runner and corpus freezer, which import names such
    as ``brute_centroid`` from the package, load from the repository
    root."""
    code = "import sys; sys.path.insert(0, 'perfbench'); import freeze, run"
    got = subprocess.run([sys.executable, "-c", code], cwd=README.parent,
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
