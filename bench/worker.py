"""One benchmark invocation: ``kolnet.cli.main(argv)`` in a fresh process.

    python3 bench/worker.py --trace 0|1 --result FILE -- <kolnet argv>

Imports the package from the checkout's ``src/``, times set-up (import of
``kolnet.cli`` plus ``load_problem`` on the workload's problem file) and the
call to ``cli.main``, and writes the timings, the peak resident memory and,
when traced, the span statistics to FILE as JSON.  Exits with the CLI's code.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Problem file -> whether it must take the exact-GBM path (True) or the
# Euler-Maruyama path (False).  A parser change that swaps a workload's code
# path fails here instead of silently changing what the benchmark measures.
PATH_CHECKS = {
    "problems/basket_put_d5.txt": True,
    "bench/problems/euler_basket_d5.txt": False,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("argv", nargs="+", help="kolnet command line")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kolnet.cli
    from kolnet.sde import load_problem

    load_problem(args.argv[1])
    setup_s = time.perf_counter() - t0
    if Path(kolnet.cli.__file__).resolve().parent != (SRC / "kolnet").resolve():
        raise SystemExit(f"kolnet was imported from {kolnet.cli.__file__}, not from {SRC}")
    for path, gbm in PATH_CHECKS.items():
        problem = load_problem(ROOT / path)
        if problem.gbm_flag != gbm or problem.coeffs.is_diagonal_gbm() != gbm:
            raise SystemExit(f"{path}: expected the {'exact-GBM' if gbm else 'Euler'} path")

    record = {"setup_s": setup_s}
    t1 = time.perf_counter()
    if args.trace:
        import spans

        tracer = spans.Tracer()
        record["sites"] = spans.install(tracer)
        rc = tracer.call(spans.ROOT_SPAN, kolnet.cli.main, (args.argv,), {})
        record["spans"] = tracer.stats
    else:
        rc = kolnet.cli.main(args.argv)
    record["wall_s"] = time.perf_counter() - t1
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
