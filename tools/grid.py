"""Solve a fixed grid of generated instances and write every report, or
compare the reports with those of an earlier run.

    PYTHONPATH=src python tools/grid.py --out FILE [--against FILE]

The grid is ``generate_instance(n, seed, r=R, coord_range=2n)`` for n in
{8, 12, 20, 40, 80, 120, 200}, R in {1, 4, 12} and seeds 1-5, each with its
integer weights and again with real weights (uniform in [0.5, 10] from
``random.Random(seed)``): 210 instances, all solved in parametric mode, and
the 60 at n <= 12 also in intermediate and brute mode.  Each report is
written as its point, weight loss, witness angle and telemetry without
``wall_time_s``, every float in hex, so that two files compare bitwise; a
solve that raises is written as its exception.

With ``--against``, every field that differs from the earlier file is
printed, then one summary line.  The exit status is 1 when a weight loss
differs, or a report is missing from either file, and 0 otherwise.  The
whole grid takes about 8 s on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Dict, List

from rivalloc import Customer, Instance, solve_centroid
from rivalloc.cli import generate_instance

NS = (8, 12, 20, 40, 80, 120, 200)
RS = (1.0, 4.0, 12.0)
SEEDS = range(1, 6)
ALL_MODES_MAX_N = 12


def instances():
    """Yield ``(name, instance, modes)`` over the grid, in a fixed order."""
    for n in NS:
        modes = ("parametric", "intermediate", "brute") if n <= ALL_MODES_MAX_N else ("parametric",)
        for R in RS:
            for seed in SEEDS:
                inst = generate_instance(n, seed, r=R, coord_range=2 * n)
                name = "n=%d R=%g seed=%d" % (n, R, seed)
                yield name + " int", inst, modes
                rng = random.Random(seed)
                real = [Customer(c.site, rng.uniform(0.5, 10.0)) for c in inst.customers]
                yield name + " real", Instance(real, R), modes


def record(inst: Instance, mode: str) -> Dict[str, object]:
    """One solve's report, floats in hex, or its exception as ``error``."""
    try:
        rep = solve_centroid(inst, mode)
    except Exception as err:  # a raising solve is a report of its own
        return {"error": "%s: %s" % (type(err).__name__, err)}
    telemetry = {k: v.hex() if isinstance(v, float) else v
                 for k, v in rep.telemetry.items() if k != "wall_time_s"}
    return {
        "point": [rep.centroid.x.hex(), rep.centroid.y.hex()],
        "weight_loss": rep.weight_loss.hex(),
        "witness_angle": rep.witness_angle.hex(),
        "telemetry": telemetry,
    }


def features_above_avx2(dispatch=None, have=None) -> List[str]:
    """The features numpy dispatches to above AVX2 that this host has and
    this process has not disabled (``NPY_DISABLE_CPU_FEATURES``): those
    after ``X86_V3`` where numpy names its x86 levels, else the ``AVX512*``
    ones where it names single features (``AVX512F``, ``AVX512_SKX`` and so
    on, as older numpy does).  ``dispatch`` and ``have`` default to numpy's
    ``__cpu_dispatch__`` and ``__cpu_features__``."""
    if dispatch is None:
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        dispatch, have = list(umath.__cpu_dispatch__), umath.__cpu_features__
    if "X86_V3" in dispatch:
        above = dispatch[dispatch.index("X86_V3") + 1:]
    else:
        above = [f for f in dispatch if f.startswith("AVX512")]
    return [f for f in above if have.get(f)]


def solve_grid() -> Dict[str, Dict[str, object]]:
    return {"%s %s" % (name, mode): record(inst, mode)
            for name, inst, modes in instances() for mode in modes}


def _flat(rep: Dict[str, object]) -> Dict[str, object]:
    """A report's fields, telemetry counters by their own names."""
    out = {k: v for k, v in rep.items() if k != "telemetry"}
    out.update(rep.get("telemetry", {}))
    return out


def _shown(v):
    """A hex float as its decimal value, anything else as it is."""
    if isinstance(v, list):
        return "(%s)" % ", ".join(_shown(u) for u in v)
    if isinstance(v, str):
        try:
            return repr(float.fromhex(v))
        except ValueError:
            pass
    return repr(v)


def compare(old: Dict[str, Dict[str, object]], new: Dict[str, Dict[str, object]]) -> List[str]:
    """Lines naming every field that differs, by report, then a summary
    line; the summary starts with ``FAIL`` when a loss moved or a report is
    missing from either side."""
    lines, moved = [], {}
    differ = losses = missing = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            missing += 1
            lines.append("%s: only in %s" % (key, "new" if key in new else "old"))
            continue
        a, b = _flat(old[key]), _flat(new[key])
        fields = [f for f in sorted(a.keys() | b.keys()) if a.get(f) != b.get(f)]
        differ += bool(fields)
        # A raising solve's record has no weight loss, so it counts here too.
        losses += "weight_loss" in fields
        for field in fields:
            moved[field] = moved.get(field, 0) + 1
            lines.append("%s: %s %s -> %s" % (key, field, _shown(a.get(field)),
                                               _shown(b.get(field))))
    fields = ", ".join("%s %d" % kv for kv in sorted(moved.items())) or "none"
    lines.append("%sgrid: %d reports, %d differ, %d losses moved, %d missing; fields: %s"
                 % ("FAIL " if losses or missing else "", len(new), differ, losses,
                    missing, fields))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="write the grid's reports to this JSON file")
    ap.add_argument("--against", help="compare with the reports of this earlier JSON file")
    args = ap.parse_args(argv)
    reports = solve_grid()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.against is None:
        print("grid: %d reports written to %s" % (len(reports), args.out))
        return 0
    with open(args.against, encoding="utf-8") as fh:
        old = json.load(fh)
    lines = compare(old, reports)
    print("\n".join(lines))
    return 1 if lines[-1].startswith("FAIL") else 0


if __name__ == "__main__":
    sys.exit(main())
