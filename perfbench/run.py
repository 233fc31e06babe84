"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 42 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it record the environment, the seeds, the sample counts
behind each tail and, for a traced run, where the Chrome trace-event
JSON was written (under ``.perfbench/`` in the checkout).  A failed
output check sets ``correct`` to false and counts every operation of the
run as failed.  ``--describe`` prints the metric catalogue with the
end-to-end metric and workload each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from workloads import DEFAULT_SEED, HELD_OUT_SEED

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
        "query_seed": seed + 1,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def describe() -> None:
    from layers import END_TO_END, PER_LAYER

    for metric in END_TO_END:
        print(f"{metric.name} [{metric.unit}, {metric.better}, bound "
              f"{metric.bound}]: {metric.why}")
    for metric in PER_LAYER:
        print(f"{metric.name} [{metric.unit}, {metric.better}] -> {metric.moves}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.describe:
        describe()
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))

    from layers import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    ctx = Context(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scratch=ROOT / ".perfbench",
    )
    outcome = WORKLOADS[args.workload](ctx)

    catalogue = PER_LAYER if ctx.trace else END_TO_END
    values = outcome.layer if ctx.trace else outcome.e2e
    missing = [metric.name for metric in catalogue if metric.name not in values]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    failed = outcome.failed if outcome.correct else outcome.attempted
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({"checks": outcome.checks, "info": outcome.info}))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": {
                    metric.name: {
                        "value": values[metric.name],
                        "unit": metric.unit,
                    }
                    for metric in catalogue
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
