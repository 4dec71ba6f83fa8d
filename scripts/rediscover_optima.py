#!/usr/bin/env python3
"""Rediscover the extremal inequality values by multi-start simplex search.

Runs the optimizer over the three configuration families with several seeds
and reports the per-seed optima next to the closed-form targets. The
temporal and spatial searches both reach -5*cos(pi/5); the compatible-cycle
(contextual) search stops at 5 - 4*sqrt(5), strictly above, which is the
gap between the sequential and jointly-measurable settings.
"""

import argparse
import math
import time

from qcycle.scenario import canonical_scenario
from qcycle.search import default_space_and_evaluator, minimize_lhs

TARGETS = {
    "temporal-times": -5.0 * math.cos(math.pi / 5.0),
    "bloch-angles": -5.0 * math.cos(math.pi / 5.0),
    "contextual-cone": 5.0 - 4.0 * math.sqrt(5.0),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--starts", type=int, default=64)
    args = parser.parse_args()

    scenario = canonical_scenario(5)
    for kind, target in TARGETS.items():
        space, evaluator = default_space_and_evaluator(kind)
        started = time.perf_counter()
        values = []
        for seed in range(args.seeds):
            _, value = minimize_lhs(space, scenario, evaluator, seed=seed, starts=args.starts)
            values.append(value)
        seconds = time.perf_counter() - started
        spread = max(values) - min(values)
        print(f"{kind:>16}: best {min(values):.12f}  target {target:.12f}  "
              f"seed spread {spread:.2e}  {seconds:.2f}s")


if __name__ == "__main__":
    main()
