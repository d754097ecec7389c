"""Re-derive the frozen corpus and its reference weight losses.

Run from the repository root: ``python3 perfbench/freeze.py``.  It checks
that the benchmark's generator matches ``rivalloc gen`` at this commit,
applies the selection rule written in ``corpus.py`` to n=200 seeds 1..12,
brute-verifies every reference with n <= 12, and prints the ``REFERENCES``
table to paste into ``corpus.py``.  The benchmark itself never runs this.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from rivalloc import Customer, Instance, Point, brute_centroid, solve_centroid  # noqa: E402
from rivalloc.cli import generate_instance  # noqa: E402

import corpus  # noqa: E402


def build(n: int, seed: int, coord_range: int) -> Instance:
    sites = corpus.generate(n, seed, coord_range)
    gen = generate_instance(n, seed, r=corpus.R, coord_range=coord_range)
    if [(c.site.x, c.site.y, c.weight) for c in gen.customers] != [
        (float(x), float(y), float(w)) for x, y, w in sites
    ]:
        raise SystemExit(f"generator differs from rivalloc gen at {(n, seed, coord_range)}")
    return Instance([Customer(Point(x, y), w) for x, y, w in sites], corpus.R)


def main() -> None:
    certifying, searching = [], []
    for seed in range(1, 13):
        rep = solve_centroid(build(200, seed, 400))
        (certifying if rep.telemetry["certified"] else searching).append(seed)
    print(f"# n=200 range 400: certify {certifying}, search {searching}", file=sys.stderr)
    expect = {
        "certify-large": [(200, s, 400) for s in certifying] + [(400, 7, 500)],
        "search-large": [(200, s, 400) for s in searching[:3]],
    }
    for name, instances in expect.items():
        if corpus.WORKLOADS[name].instances != instances:
            print(f"# {name} no longer matches the selection rule: {instances}",
                  file=sys.stderr)

    refs = {}
    for wl in corpus.WORKLOADS.values():
        for key in wl.instances:
            inst = build(*key)
            loss = solve_centroid(inst).weight_loss
            if key[0] <= 12 and brute_centroid(inst).weight_loss != loss:
                raise SystemExit(f"parametric and brute disagree at {key}")
            refs[key] = loss
    print("REFERENCES = {")
    for key in sorted(refs):
        print(f"    {key}: {refs[key]!r},")
    print("}")


if __name__ == "__main__":
    main()
