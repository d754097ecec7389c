"""rivalloc benchmark: CLI solves that certify, solves that search, and
cross-checks of the solver modes.

Run from the repository root:

    python3 perfbench/run.py --workload search-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Each op is one in-process call of ``rivalloc.cli.main`` on an instance file
the benchmark wrote.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs the same ops untraced and then traced and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the full results go to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
# No op starts after this many seconds, so that a run of a much slower
# program still exits within the 180 s a run is allowed; ops not started
# count as failed.
DEADLINE_S = 150.0
EXIT_CANNOT_RUN = 2


class Op:
    """One CLI call on one instance file, and what came of it."""

    def __init__(self, key, path: Path, argv: List[str], out: Optional[Path]) -> None:
        self.key, self.path, self.argv, self.out = key, path, argv, out
        self.time_s = 0.0
        self.rc: Optional[int] = None
        self.error: Optional[str] = None
        self.reports: List[dict] = []


def calibrate_ms() -> float:
    """Machine-speed reading: median time of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def write_inputs(workload: str, seed: int, passes: int, workdir: Path) -> List[Op]:
    """Generate and write every instance; return the ops in seeded order.

    The workload seed sets only the order of the ops.  Every run therefore
    does the same work, and no variation of the inputs widens the spread
    between runs, which this machine's speed changes already make wide.
    """
    wl = corpus.WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for n, iseed, crange in wl.instances:
        path = workdir / f"n{n}-s{iseed}-c{crange}.json"
        obj = corpus.instance_obj(corpus.generate(n, iseed, crange))
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        paths[(n, iseed, crange)] = path
    keys = list(wl.instances) * passes
    random.Random(f"{workload}:{seed}").shuffle(keys)
    ops = []
    for k, key in enumerate(keys):
        path = paths[key]
        if wl.command == "solve":
            out = workdir / f"report-{k}.json"
            argv = ["solve", "--mode", "parametric", "--input", str(path), "--out", str(out)]
        else:
            out = None
            argv = ["compare", "--input", str(path)]
        ops.append(Op(key, path, argv, out))
    return ops


def capture_reports(cli) -> List[object]:
    """Record every report ``cli`` gets from ``solve_centroid``.

    ``compare`` prints no optimum points, so its reports are taken here for
    the exact re-evaluation; ``solve`` ops are checked on their output file.
    """
    captured: List[object] = []
    inner = getattr(cli, "solve_centroid", None)
    if inner is None:
        return captured

    def solve_centroid(*args, **kwargs):
        report = inner(*args, **kwargs)
        captured.append(report)
        return report

    cli.solve_centroid = solve_centroid
    return captured


def run_ops(ops: List[Op], cli, captured: List[object]) -> float:
    """Run every op through ``cli.main``; return the timed phase's seconds."""
    gc.collect()
    t_phase = time.perf_counter()
    for op in ops:
        if time.perf_counter() - STARTED > DEADLINE_S:
            op.error = "not started: run deadline reached"
            continue
        del captured[:]
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                op.rc = cli.main(op.argv)
        except (Exception, SystemExit) as e:
            op.error = f"{type(e).__name__}: {e}"
        op.time_s = time.perf_counter() - t0
        if op.error is None and op.rc != 0:
            op.error = f"exit code {op.rc}: {err.getvalue().strip()[-300:]}"
        op.reports = [
            {
                "centroid": [r.centroid.x, r.centroid.y],
                "weight_loss": r.weight_loss,
                "solver": r.solver,
                "telemetry": r.telemetry,
            }
            for r in captured
        ]
    return time.perf_counter() - t_phase


def check_ops(ops: List[Op], command: str) -> None:
    """Outside the timed phase: set ``op.error`` on every op whose output is
    wrong.  Each report must carry the frozen reference weight loss, and
    re-evaluating the follower at its point must reproduce it exactly."""
    from rivalloc import Customer, Instance, Point, solve_medianoid

    instances: Dict[Path, object] = {}
    for op in ops:
        if op.error is not None:
            continue
        if command == "solve":
            try:
                op.reports = [json.loads(op.out.read_text(encoding="utf-8"))]
            except (OSError, ValueError) as e:
                op.error = f"unreadable report: {e}"
                continue
        else:
            # Agreement: compare exits 0 and every mode's report carries the
            # reference weight loss (checked below).
            solvers = {r["solver"] for r in op.reports}
            needed = {"parametric", "intermediate"} | ({"brute"} if op.key[0] <= 12 else set())
            if not needed <= solvers:
                op.error = f"modes run {sorted(solvers)}, expected at least {sorted(needed)}"
                continue
        if op.path not in instances:
            data = json.loads(op.path.read_text(encoding="utf-8"))
            instances[op.path] = Instance(
                [Customer(Point(float(c["x"]), float(c["y"])), float(c["w"]))
                 for c in data["customers"]],
                float(data["r"]),
            )
        ref = corpus.REFERENCES[op.key]
        for rep in op.reports:
            loss = rep["weight_loss"]
            if loss != ref:
                op.error = f"{rep['solver']} weight loss {loss!r}, reference {ref!r}"
                break
            again = solve_medianoid(instances[op.path], Point(*rep["centroid"])).weight_loss
            if again != loss:
                op.error = f"{rep['solver']} re-evaluation gives {again!r}, reported {loss!r}"
                break


TELEMETRY_SUMS = ("lt_rounds", "lt_oracle", "lm_mass0", "lm_rounds", "lc_points",
                  "lc_steps", "lines_searched")


def report_metrics(ops: List[Op]) -> Dict[str, float]:
    """Exact counts summed over every report of every op."""
    values: Dict[str, float] = {}
    for key in TELEMETRY_SUMS:
        values[f"centroid.{key}"] = sum(
            r["telemetry"].get(key) or 0 for op in ops for r in op.reports
        )
    values["centroid.certified_ops"] = sum(
        any(r["solver"] == "parametric" and r["telemetry"].get("certified")
            for r in op.reports)
        for op in ops
    )
    fractions = [
        r["telemetry"]["prune_min_fraction"] for op in ops for r in op.reports
        if r["telemetry"].get("prune_min_fraction") is not None
    ]
    # 1.0 when no search pruned anything, as an empty prune log reads.
    values["linesearch.prune_min_fraction"] = min(fractions) if fractions else 1.0
    return values


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for layer, row in tracer.layer_table().items():
        for field, value in row.items():
            values[f"{layer}.{field}"] = value
        values[f"{layer}.us_per_call"] = (
            row["total_s"] / row["calls"] * 1e6 if row["calls"] else 0.0
        )
    values.update(tracer.counters)
    return values


def read_commit() -> Optional[str]:
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rivalloc.cli; print(time.perf_counter() - t)"
)


def set_up(workload: str, seed: int, passes: int, workdir: Path):
    """Set up ``SETUP_REPEATS`` times and return the median with the ops.

    One set-up is importing ``rivalloc.cli`` (timed in a fresh interpreter,
    since a process imports only once) plus generating and writing every
    instance file.
    """
    src = str(ROOT / "src")
    repeats = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], cwd=ROOT,
                               capture_output=True, text=True, timeout=60, check=True)
        t0 = time.perf_counter()
        ops = write_inputs(workload, seed, passes, workdir)
        repeats.append(float(probe.stdout) + time.perf_counter() - t0)
    return statistics.median(repeats), ops


def run_workload(args, spec: dict) -> int:
    calibration_start = calibrate_ms()
    wl = corpus.WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / wl.pass_s))
    workdir = OUT / "work" / args.workload
    setup_s, ops = set_up(args.workload, args.seed, passes, workdir)
    sys.path.insert(0, str(ROOT / "src"))
    import rivalloc.cli as cli

    captured = capture_reports(cli)

    # Warm-up, untimed and unchecked: first calls into numpy and the solver.
    warm = workdir / "warmup.json"
    warm.write_text(json.dumps(corpus.instance_obj(corpus.generate(8, 1, 50))))
    run_ops([Op(None, warm, ["solve", "--input", str(warm), "--out", f"{warm}.out"], None)],
            cli, captured)

    wall_s = run_ops(ops, cli, captured)
    check_ops(ops, wl.command)
    times = [op.time_s for op in ops if op.rc is not None]
    values: Dict[str, float] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s_p50": statistics.median(times) if times else wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(report_metrics(ops))
    passes_run = {"timed": ops}
    tracer = None
    if args.trace:
        traced = write_inputs(args.workload, args.seed, passes, workdir)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall_s = run_ops(traced, cli, captured)
        finally:
            tracer.uninstall()
        check_ops(traced, wl.command)
        passes_run["traced"] = traced
        values.update(layer_metrics(tracer))
        values["trace_overhead_frac"] = traced_wall_s / wall_s - 1.0

    all_ops = [op for group in passes_run.values() for op in group]
    failed = sum(op.error is not None for op in all_ops)
    values["fail_frac"] = failed / len(all_ops)
    samples = {"setup_s": SETUP_REPEATS, "op_s_p50": len(times), "fail_frac": len(all_ops)}
    self_sum_err = tracer.self_sum_error() if tracer else None
    correct = failed == 0 and (self_sum_err is None or self_sum_err <= 1e-6)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = (tracer.missing if tracer else []) + [
        m["name"] for m in declared if m["name"] not in values
    ]
    described = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    described["fail_frac"] = {"unit": "1", "better": "lower"}
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "commit": read_commit(),
        "source_sha256": source_digest(),
        "calibration_loop_ms": {"start": calibration_start, "end": calibrate_ms()},
        "correct": correct,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {
            name: {
                "value": value,
                "unit": described.get(name, {}).get("unit"),
                "better": described.get(name, {}).get("better"),
                "samples": samples.get(name, 1),
            }
            for name, value in sorted(values.items())
        },
        "missing": missing,
        "trace_self_sum_max_error_s": self_sum_err,
        "layers_by_caller": tracer.caller_table() if tracer else None,
        "ops": [
            {"instance": list(op.key), "pass": label, "time_s": op.time_s, "error": op.error}
            for label, group in passes_run.items() for op in group
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(str(OUT / f"{stem}-spans.tsv.gz"))

    print(f"{args.workload} seed={args.seed} passes={passes} ops={len(all_ops)} "
          f"failed={failed} calibration_loop_ms={results['calibration_loop_ms']}")
    for name in [m["name"] for m in declared] + ["fail_frac"]:
        m = results["metrics"].get(name)
        if m is not None:
            print(f"  {name} = {m['value']:.6g} {m['unit']} "
                  f"(better {m['better']}, samples {m['samples']})")
    for name in missing:
        print(f"  missing: {name}")
    for op in all_ops:
        if op.error is not None:
            print(f"  FAILED {op.key}: {op.error}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, one process each."""
    status = 0
    for name in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            status = 1
            continue
        result = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        if not json.loads(result.read_text(encoding="utf-8"))["correct"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rivalloc" / "cli.py").is_file():
        print(f"perfbench: no rivalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
