"""Seeded instance generator and the frozen workload corpus.

The generator draws the same distribution as ``rivalloc gen`` (integer
grid, distinct x and distinct y, no three sites collinear in exact integer
arithmetic, integer weights) and makes the same random draws, so instance
``(n, seed, coord_range)`` here equals ``rivalloc gen`` at the commit that
froze the corpus.  It is the benchmark's own copy: a change to
``rivalloc.cli.generate_instance`` cannot alter a workload's inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

R = 4.0
WEIGHT_RANGE = 10

Site = Tuple[int, int, int]  # x, y, weight


def _direction(dx: int, dy: int) -> Tuple[int, int]:
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy


def generate(n: int, seed: int, coord_range: int) -> List[Site]:
    """Rejection sampling with ``rivalloc gen``'s draws and acceptance rule.

    A candidate p is collinear with two accepted sites exactly when two
    accepted sites lie in the same reduced direction from p, which a set
    detects in O(n) per candidate instead of the O(n^2) pair loop.
    """
    if 2 * coord_range + 1 < n:
        raise ValueError(f"coordinate range {coord_range} cannot host {n} values")
    rng = random.Random(seed)
    sites: List[Site] = []
    xs_used, ys_used = set(), set()
    budget = 2000 * n + 10000
    attempts = 0
    while len(sites) < n:
        attempts += 1
        if attempts > budget:
            raise RuntimeError(f"generation gave up after {budget} attempts")
        x = rng.randint(-coord_range, coord_range)
        y = rng.randint(-coord_range, coord_range)
        if x in xs_used or y in ys_used:
            continue
        seen = set()
        for sx, sy, _w in sites:
            d = _direction(sx - x, sy - y)
            if d in seen:
                break
            seen.add(d)
        else:
            xs_used.add(x)
            ys_used.add(y)
            sites.append((x, y, rng.randint(1, WEIGHT_RANGE)))
    return sites


def instance_obj(sites: List[Site]) -> Dict[str, object]:
    """Instance JSON in the CLI's format, as ``rivalloc gen`` writes it."""
    return {
        "r": R,
        "customers": [{"x": x, "y": y, "w": w} for x, y, w in sites],
    }


@dataclass(frozen=True)
class Workload:
    """A frozen list of instances and the CLI command run on each.

    ``pass_s`` is the nominal length of one pass over the list on a 2-core
    x86 machine; a run makes ``round(seconds / pass_s)`` passes (at least
    one), so the work done depends only on ``--seconds``, never on how fast
    the machine happens to be.
    """

    command: str
    instances: List[Tuple[int, int, int]]  # (n, seed, coord_range)
    pass_s: float


# Selection rule, applied once by ``freeze.py`` and never at run time, so a
# solver change cannot change a workload's inputs: solve n=200 (coordinate
# range 400) seeds 1..12 in parametric mode.  The seeds whose solve ends in
# a certificate (2, 4, 9, 10) form certify-large, with the scaling gate's
# n=400 (range 500) seed 7, which certifies too.  The first three seeds that
# reach no certificate (1, 3, 5) form search-large.  No input property
# predicted certification, so the lists are frozen rather than derived.
WORKLOADS: Dict[str, Workload] = {
    # Parametric solves that reach no certificate: LT, LM and LC searches,
    # decide, the line searches, and the O(n^3) general-position check.
    "search-large": Workload(
        "solve", [(200, 1, 400), (200, 3, 400), (200, 5, 400)], pass_s=17.0
    ),
    # Parametric solves that end in a certificate during LT: angular index,
    # LT comparator network, decide, general-position check; never LM or LC.
    "certify-large": Workload(
        "solve",
        [(200, 2, 400), (200, 4, 400), (200, 9, 400), (200, 10, 400), (400, 7, 500)],
        pass_s=14.0,
    ),
    # All three modes below the brute limit (n <= 12), parametric and
    # intermediate above it; small n runs the pure-Python medianoid sweep and
    # is the only workload that reaches the brute oracle.
    "crosscheck": Workload(
        "compare",
        [(n, seed, 50) for n in (8, 10, 12, 16, 20, 24) for seed in (1, 2)],
        pass_s=14.0,
    ),
}


# Weight loss of each instance's optimum: brute-verified for n <= 12, the
# parametric answer at the commit that froze the corpus otherwise.  Printed
# by freeze.py.
REFERENCES: Dict[Tuple[int, int, int], float] = {
    (8, 1, 50): 26.0,
    (8, 2, 50): 28.0,
    (10, 1, 50): 27.0,
    (10, 2, 50): 36.0,
    (12, 1, 50): 41.0,
    (12, 2, 50): 39.0,
    (16, 1, 50): 47.0,
    (16, 2, 50): 56.0,
    (20, 1, 50): 61.0,
    (20, 2, 50): 68.0,
    (24, 1, 50): 74.0,
    (24, 2, 50): 87.0,
    (200, 1, 400): 596.0,
    (200, 2, 400): 610.0,
    (200, 3, 400): 599.0,
    (200, 4, 400): 560.0,
    (200, 5, 400): 593.0,
    (200, 9, 400): 552.0,
    (200, 10, 400): 591.0,
    (400, 7, 500): 1140.0,
}
