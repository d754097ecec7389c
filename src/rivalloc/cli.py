"""Command line front end: solve, generate, and cross-check instances.

Exit codes: 0 success, 1 solver disagreement in ``compare``, 2 unreadable
or malformed input or an unwritable output path, 3 instance violating the
general-position requirements (``solve_centroid``'s
``DegenerateInputError``), 4 instance generation gave up, 5 internal
solver error (any other exception escaping a solve in ``solve`` or
``compare``; its traceback goes to stderr).  Codes 1 and 5 also write a
reproducer JSON to the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .geom import Customer, DegenerateInputError, Instance, Point
from .centroid import BRUTE, INTERMEDIATE, MODES, PARAMETRIC, SolveReport, solve_centroid

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_GEN = 4
EXIT_INTERNAL = 5

# compare runs the exhaustive solver only on instances up to this size.
BRUTE_LIMIT = 12


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _require_number(obj, key, where, positive=False):
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise CliError(EXIT_PARSE, f"{where}: field {key!r} must be a number")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise CliError(EXIT_PARSE, f"{where}: field {key!r} must be finite")
    if positive and not v > 0:
        raise CliError(EXIT_PARSE, f"{where}: field {key!r} must be positive")
    return v


def parse_instance(data, where: str = "instance") -> Instance:
    if not isinstance(data, dict):
        raise CliError(EXIT_PARSE, f"{where}: expected a JSON object")
    if "r" not in data or "customers" not in data:
        raise CliError(EXIT_PARSE, f"{where}: fields 'r' and 'customers' are required")
    R = _require_number(data, "r", where, positive=True)
    raw = data["customers"]
    if not isinstance(raw, list) or not raw:
        raise CliError(EXIT_PARSE, f"{where}: 'customers' must be a non-empty list")
    customers = []
    for k, c in enumerate(raw):
        tag = f"{where}: customer {k}"
        if not isinstance(c, dict):
            raise CliError(EXIT_PARSE, f"{tag} must be an object")
        x = _require_number(c, "x", tag)
        y = _require_number(c, "y", tag)
        w = _require_number(c, "w", tag, positive=True)
        customers.append(Customer(Point(x, y), w))
    try:
        return Instance(customers, R)
    except ValueError as e:
        raise CliError(EXIT_PARSE, f"{where}: {e}")


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {e}")
    # ValueError: bad JSON or UTF-8, or an integer too long to convert.
    except (ValueError, RecursionError) as e:
        raise CliError(EXIT_PARSE, f"cannot parse {path}: {e}")
    return parse_instance(data, where=path)


def instance_to_obj(inst: Instance) -> dict:
    return {
        "r": inst.R,
        "customers": [
            {"x": c.site.x, "y": c.site.y, "w": c.weight} for c in inst.customers
        ],
    }


def report_to_obj(report: SolveReport) -> dict:
    return {
        "centroid": [report.centroid.x, report.centroid.y],
        "weight_loss": report.weight_loss,
        "witness_angle": report.witness_angle,
        "solver": report.solver,
        "telemetry": report.telemetry,
    }


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(EXIT_PARSE, f"cannot write {path}: {e}")


def _dump_json(obj, out: Optional[str]) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def _direction(dx: int, dy: int) -> tuple:
    """The direction of a nonzero integer vector, reduced and signed so
    that opposite vectors share it."""
    g = math.gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return dx // g, dy // g


def generate_instance(
    n: int,
    seed: int,
    r: float = 2.0,
    coord_range: int = 50,
    weight_range: int = 10,
) -> Instance:
    """Deterministic rejection sampling on the integer grid.

    Customers get distinct x's, distinct y's, and no three collinear, all
    checked in exact integer arithmetic.  Deterministic per seed.  A
    candidate is collinear with two accepted sites exactly when both lie in
    the same reduced direction from it, which a set detects in O(n).
    """
    if n < 1:
        raise CliError(EXIT_PARSE, "n must be at least 1")
    if not 0.0 < r < math.inf:
        raise CliError(EXIT_PARSE, f"r must be positive and finite, got {r}")
    if weight_range < 1:
        raise CliError(EXIT_PARSE, f"weight range must be at least 1, got {weight_range}")
    if 2 * coord_range + 1 < n:
        raise CliError(
            EXIT_GEN,
            f"coordinate range {coord_range} cannot host {n} distinct values",
        )
    rng = random.Random(seed)
    pts: List[tuple] = []
    xs_used = set()
    ys_used = set()
    attempts = 0
    budget = 2000 * n + 10000
    customers: List[Customer] = []
    while len(pts) < n:
        attempts += 1
        if attempts > budget:
            raise CliError(
                EXIT_GEN, f"instance generation gave up after {budget} attempts"
            )
        x = rng.randint(-coord_range, coord_range)
        y = rng.randint(-coord_range, coord_range)
        if x in xs_used or y in ys_used:
            continue
        directions = {_direction(px - x, py - y) for px, py in pts}
        if len(directions) < len(pts):
            continue
        pts.append((x, y))
        xs_used.add(x)
        ys_used.add(y)
        w = rng.randint(1, weight_range)
        customers.append(Customer(Point(float(x), float(y)), float(w)))
    try:
        return Instance(customers, r)
    except ValueError as e:
        raise CliError(EXIT_PARSE, str(e)) from e


def write_svg(path: str, inst: Instance, report: Optional[SolveReport]) -> None:
    r = inst.r
    xs = [c.site.x for c in inst.customers]
    ys = [c.site.y for c in inst.customers]
    xmin, xmax = min(xs) - 2 * r - 1, max(xs) + 2 * r + 1
    ymin, ymax = min(ys) - 2 * r - 1, max(ys) + 2 * r + 1
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    scale = 600.0 / span
    wpx = (xmax - xmin) * scale
    hpx = (ymax - ymin) * scale

    def sx(x: float) -> float:
        return (x - xmin) * scale

    def sy(y: float) -> float:
        return hpx - (y - ymin) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{wpx:.0f}" '
        f'height="{hpx:.0f}" viewBox="0 0 {wpx:.2f} {hpx:.2f}">',
        f'<rect width="{wpx:.2f}" height="{hpx:.2f}" fill="white"/>',
    ]
    for c in inst.customers:
        cx, cy = sx(c.site.x), sy(c.site.y)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r * scale:.2f}" '
            'fill="none" stroke="#8888cc" stroke-width="1"/>'
        )
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="#333399"/>'
        )
        parts.append(
            f'<text x="{cx + 5:.2f}" y="{cy - 5:.2f}" font-size="12" '
            f'fill="#333">{c.weight:g}</text>'
        )
    if report is not None:
        px, py = sx(report.centroid.x), sy(report.centroid.y)
        parts.append(
            f'<path d="M {px - 6:.2f} {py} L {px + 6:.2f} {py} '
            f'M {px} {py - 6:.2f} L {px} {py + 6:.2f}" '
            'stroke="#cc2222" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{px + 8:.2f}" y="{py + 4:.2f}" font-size="12" '
            f'fill="#cc2222">loss {report.weight_loss:g}</text>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _reproducer_path(kind: str, name: str) -> str:
    """File name for a reproducer of instance ``name`` (a path or
    ``seed=N``), in the working directory."""
    return f"{kind}-{Path(name).stem.replace('=', '')}.json"


def _solve_or_report(inst: Instance, mode: str, name: str) -> SolveReport:
    """``solve_centroid``, turning a degenerate instance into exit code 3
    and any other exception, an internal invariant failure or a crash,
    into exit code 5 with its traceback on stderr and a reproducer
    (instance, mode and error) for the failing solve."""
    try:
        return solve_centroid(inst, mode)
    except DegenerateInputError as e:
        raise CliError(EXIT_DEGENERATE, f"{name}: {e}") from e
    except Exception as e:
        import traceback  # 1.3 ms at start-up that only a failing solve needs

        traceback.print_exc()
        error = f"{type(e).__name__}: {e}"
        repro = _reproducer_path("internal-error", name)
        _dump_json({"instance": instance_to_obj(inst), "mode": mode, "error": error}, repro)
        raise CliError(
            EXIT_INTERNAL,
            f"{name}: internal error in {mode} solve: {error} (reproducer: {repro})",
        ) from e


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    report = _solve_or_report(inst, args.mode, args.input)
    _dump_json(report_to_obj(report), args.out)
    if args.plot:
        write_svg(args.plot, inst, report)
    return EXIT_OK


def _add_generator_options(p: argparse.ArgumentParser) -> None:
    """Declare ``generate_instance``'s options, named as its parameters."""
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--coord-range", type=int, default=50)
    p.add_argument("--weight-range", type=int, default=10)


def _generate(args, n: int, seed: int) -> Instance:
    return generate_instance(n, seed, args.r, args.coord_range, args.weight_range)


def cmd_gen(args) -> int:
    inst = _generate(args, args.n, args.seed)
    _dump_json(instance_to_obj(inst), args.out)
    return EXIT_OK


def _parse_seed_range(text: str) -> List[int]:
    if ".." in text:
        a, _, b = text.partition("..")
        try:
            lo, hi = int(a), int(b)
        except ValueError:
            raise CliError(EXIT_PARSE, f"bad seed range {text!r}")
        if hi < lo:
            raise CliError(EXIT_PARSE, f"bad seed range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise CliError(EXIT_PARSE, f"bad seed {text!r}")


def cmd_compare(args) -> int:
    jobs = []
    if args.input:
        jobs.append((args.input, load_instance(args.input)))
    else:
        if args.gen_n is None or args.seeds is None:
            raise CliError(
                EXIT_PARSE, "compare needs --input or both --gen-n and --seeds"
            )
        for seed in _parse_seed_range(args.seeds):
            jobs.append((f"seed={seed}", _generate(args, args.gen_n, seed)))

    for name, inst in jobs:
        modes = [PARAMETRIC, INTERMEDIATE]
        if inst.n <= BRUTE_LIMIT:
            modes.append(BRUTE)
        reports = {mode: _solve_or_report(inst, mode, name) for mode in modes}
        losses = {mode: rep.weight_loss for mode, rep in reports.items()}
        summary = " ".join(f"{m}={losses[m]:g}" for m in modes)
        if len(set(losses.values())) > 1:
            repro = _reproducer_path("disagreement", name)
            _dump_json(
                {
                    "instance": instance_to_obj(inst),
                    "reports": {m: report_to_obj(r) for m, r in reports.items()},
                },
                repro,
            )
            print(f"{name} n={inst.n} DISAGREE {summary} (reproducer: {repro})")
            return EXIT_DISAGREE
        print(f"{name} n={inst.n} ok {summary}")
    print(f"all {len(jobs)} instances agree")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rivalloc",
        description="competitive facility location with minimal separation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("--input", required=True, help="instance JSON file")
    p_solve.add_argument("--mode", choices=MODES, default=PARAMETRIC)
    p_solve.add_argument("--out", help="result JSON file (default stdout)")
    p_solve.add_argument("--plot", help="also write an SVG rendering here")
    p_solve.set_defaults(fn=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    _add_generator_options(p_gen)
    p_gen.add_argument("--out", help="instance JSON file (default stdout)")
    p_gen.set_defaults(fn=cmd_gen)

    p_cmp = sub.add_parser("compare", help="cross-check the solver modes")
    p_cmp.add_argument("--input", help="instance JSON file")
    p_cmp.add_argument("--gen-n", type=int, help="generate instances of this size")
    p_cmp.add_argument("--seeds", help="seed or inclusive range like 1..50")
    _add_generator_options(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"rivalloc: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
