"""Benchmark of the kolnet CLI pipelines: train, build and simulate.

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one ``kolnet.cli.main(argv)``
invocation at a time, each in a fresh Python process (``worker.py``), the
next started after the previous one has exited.  A run first makes one
check invocation at the default seed, whose artifacts must match the sha256
digests in ``digests.json`` (it also warms the file cache), and then invokes
the workload at ``--seed`` until ``--seconds`` have passed.  Every
invocation with the same seed must write byte-identical artifacts.

``--trace 0`` reports the end-to-end metrics, as medians over the timed
invocations.  ``--trace 1`` alternates untraced and traced invocations and
reports the per-layer metrics of ``spans.py``.  The last line of standard
output is one JSON object; the full results go to ``bench/.out/results.json``.
The exit code is 1 when any invocation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
DEFAULT_SEED = 0
MIN_TIMED = 3  # fewest timed invocations a run reports a median over
MIN_TRACED = 2  # fewest traced invocations, so that counts can be compared
BLAS_THREADS = 1  # pinned, so that one invocation keeps to one core
RUN_BUDGET_S = 170  # a run (one workload) ends within this, whatever hangs
MIN_COVERED_FRAC = 0.9  # share of traced wall time the spans must account for
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _train_quality(out: Path) -> float:
    return float(_csv_rows(out / "summary.csv")[0]["l2_error"])


def _build_quality(out: Path) -> float:
    # The CLI keeps the retry with the smallest estimate.
    return min(float(r["l2_error_estimate"]) for r in _csv_rows(out / "build_report.csv"))


def _simulate_quality(out: Path) -> float:
    rows = _csv_rows(out / "reference.csv")
    if not all(0.0 <= float(r["estimate"]) <= 1.0 for r in rows):
        raise ValueError("reference estimate outside the payoff range [0, 1]")
    return statistics.fmean(float(r["std_error"]) for r in rows)


@dataclass(frozen=True)
class Workload:
    argv: tuple  # kolnet command line without --seed and --out-dir
    quality: str  # name of the workload's deterministic quality metric
    read_quality: Callable[[Path], float]  # out_dir -> quality value
    quality_max: float  # sanity limit: a larger value means a broken result
    spans: frozenset  # spans a traced invocation must enter at least once


COMMON_SPANS = {
    spans.ROOT_SPAN, "rng.uniforms", "rng.gaussians", "sde.load_problem",
    "sde.mc_reference_grid", "sde.mc_feynman_kac", "nets.evaluate",
}

WORKLOADS = {
    "train_basket_d5": Workload(
        argv=("train", "problems/basket_put_d5.txt", "--m", "100000", "--arch", "5,64,64,1",
              "--batch", "512", "--lr", "3e-3", "--iters", "3000", "--eval-every", "500",
              "--grid", "64", "--paths", "20000"),
        quality="l2_error", read_quality=_train_quality, quality_max=1e-3,
        spans=frozenset(COMMON_SPANS | {
            "learning.generate_dataset", "learning.train_erm", "learning.empirical_risk",
            "nets.save_network"}),
    ),
    "build_basket_d5": Workload(
        argv=("build", "problems/basket_put_d5.txt", "--n", "2048", "--retries", "2",
              "--grid", "64", "--paths", "4000"),
        quality="build_l2_est", read_quality=_build_quality, quality_max=1e-4,
        spans=frozenset(COMMON_SPANS | {
            "sde.extract_affine_batch", "nets.compose_average", "nets.save_network",
            "constructive.build_mc_network", "constructive.verify_construction_bounds"}),
    ),
    "simulate_euler_d5": Workload(
        argv=("simulate", "bench/problems/euler_basket_d5.txt", "--grid", "16",
              "--paths", "10000"),
        quality="std_error_mean", read_quality=_simulate_quality, quality_max=5e-3,
        spans=frozenset(COMMON_SPANS),
    ),
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _without_column(text: str, column: str) -> str:
    lines = text.split("\n")
    at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[at].split(",")
    if column not in header:
        return text
    k = header.index(column)
    for i in range(at, len(lines)):
        if lines[i]:
            fields = lines[i].split(",")
            lines[i] = ",".join(fields[:k] + fields[k + 1:])
    return "\n".join(lines)


def artifact_digests(out: Path) -> dict:
    """sha256 of every file the CLI wrote.

    ``summary.csv`` is digested without its ``wall_clock_s`` column, which
    differs on every run (known issue in README.md).
    """
    digests = {}
    for path in sorted(out.iterdir()):
        if path.name == "summary.csv":
            data = _without_column(path.read_text(), "wall_clock_s").encode()
            digests[path.name] = hashlib.sha256(data).hexdigest()
        else:
            digests[path.name] = _sha256(path)
    return digests


def _environment() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(name: str, seed: int, trace: bool, deadline: float) -> dict:
    """One CLI invocation in a fresh worker process; returns its record.

    The record has ``failure`` set when the invocation did not succeed.  The
    worker is killed if it is still running at ``deadline`` (perf_counter).
    """
    wl = WORKLOADS[name]
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = OUT / f"{name}.worker.json"
    result.unlink(missing_ok=True)
    argv = [*wl.argv, "--seed", str(seed), "--out-dir", str(out.relative_to(ROOT))]
    cmd = [sys.executable, str(BENCH / "worker.py"), "--trace", str(int(trace)),
           "--result", str(result), "--", *argv]
    rec = {"seed": seed, "trace": trace}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_environment(), capture_output=True,
                              text=True, timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        return rec | {"failure": f"still running after the run's {RUN_BUDGET_S} s budget"}
    if proc.returncode != 0:
        return rec | {"failure": f"exit code {proc.returncode}: {proc.stderr.strip()[-800:]}"}
    try:
        rec |= json.loads(result.read_text())
        rec["digests"] = artifact_digests(out)
        rec["network_bytes"] = sum(p.stat().st_size for p in out.glob("*_network.txt"))
        rec["quality"] = wl.read_quality(out)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return rec | {"failure": f"unreadable result or artifact: {exc!r}"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    q = rec["quality"]
    if not (math.isfinite(q) and 0 < q <= wl.quality_max):
        rec["failure"] = f"{wl.quality}={q!r} outside (0, {wl.quality_max}]"
    return rec


def check_traced(name: str, rec: dict, reference: dict | None) -> str | None:
    """Failure reason of a traced invocation, or None.  Also sets rec['layers']."""
    stats = rec["spans"]
    missed = sorted(s for s in WORKLOADS[name].spans if stats.get(s, {}).get("calls", 0) == 0)
    if missed:
        return f"expected spans recorded no calls: {', '.join(missed)}"
    layers = rec["layers"] = spans.layer_metrics(stats)
    if layers["trace.covered_frac"] < MIN_COVERED_FRAC:
        return (f"spans cover {layers['trace.covered_frac']:.1%} of traced wall time, "
                f"below {MIN_COVERED_FRAC:.0%}")
    if layers["nets.save_network.bytes"] != rec["network_bytes"]:
        return (f"nets.save_network.bytes={layers['nets.save_network.bytes']} but the "
                f"network files hold {rec['network_bytes']} bytes")
    if reference is not None:
        for metric, (_, kind) in spans.LAYER_METRICS.items():
            if kind == "exact" and layers[metric] != reference["layers"][metric]:
                return (f"count {metric} changed between invocations: "
                        f"{reference['layers'][metric]} then {layers[metric]}")
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    recorded = json.loads((BENCH / "digests.json").read_text()).get(name)
    failures = []

    def fail(rec, reason):
        rec["failure"] = reason
        failures.append(f"seed {rec['seed']}{' traced' if rec['trace'] else ''}: {reason}")

    # Check invocation at the default seed: outputs must match the recorded digests.
    check = invoke(name, DEFAULT_SEED, False, deadline)
    if "failure" in check:
        fail(check, check["failure"])
    elif check["digests"] != recorded:
        fail(check, f"artifact digests {json.dumps(check['digests'])} differ from "
                    f"digests.json {json.dumps(recorded)}")

    # Every invocation with the seed must write the same bytes as the first.
    reference = check if seed == DEFAULT_SEED and "failure" not in check else None
    first_traced = None
    timed = []
    min_timed = 2 * MIN_TRACED if trace else MIN_TIMED
    # Once min_timed are done, start no invocation that would likely end after
    # the deadline: the last invocation's duration predicts the next one's.
    start = time.perf_counter()
    duration = 0.0
    while (len(timed) < min_timed or time.perf_counter() - start + duration <= seconds) and (
        time.perf_counter() < deadline
    ):
        t = time.perf_counter()
        traced = trace and len(timed) % 2 == 1
        rec = invoke(name, seed, traced, deadline)
        duration = time.perf_counter() - t
        timed.append(rec)
        if "failure" in rec:
            fail(rec, rec["failure"])
            continue
        reference = reference or rec
        if rec["digests"] != reference["digests"]:
            fail(rec, "artifacts differ from an earlier invocation with the same seed")
            continue
        if traced:
            reason = check_traced(name, rec, first_traced)
            if reason:
                fail(rec, reason)
                continue
            first_traced = first_traced or rec

    ok = [r for r in timed if "failure" not in r]
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    metrics = {}
    if trace and traced and untraced:
        for metric, (unit, kind) in spans.LAYER_METRICS.items():
            if metric == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in untraced) - 1.0)
            elif kind == "exact":
                value = traced[0]["layers"][metric]
            else:
                value = statistics.median(r["layers"][metric] for r in traced)
            metrics[metric] = {"value": value, "unit": unit}
    elif not trace and untraced:
        for metric, unit in END_TO_END.items():
            values = [r[metric] for r in untraced]
            metrics[metric] = {"value": statistics.median(values), "unit": unit,
                               "min": min(values), "max": max(values)}
    return {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": 1 + len(timed), "failed": len(failures), "failures": failures,
        "samples": len(traced if trace else untraced), "metrics": metrics,
        "quality": {"name": WORKLOADS[name].quality, "value": ok[0]["quality"] if ok else None},
        "sites": traced[0]["sites"] if traced else [],
        "correct": not failures and bool(metrics),
    }


def report(result: dict) -> None:
    name = result["workload"]
    print(f"{name}: seed {result['seed']}, {'traced' if result['trace'] else 'untraced'}, "
          f"{result['attempted']} invocations (1 check), {result['failed']} failed")
    for metric, m in result["metrics"].items():
        spread = f"  [min {m['min']:.6g}, max {m['max']:.6g}]" if "min" in m else ""
        print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']:<6}"
              f" median of {result['samples']}{spread}")
    print(f"  {'error_rate':<44} {result['failed'] / result['attempted']:>14.6g} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    q = result["quality"]
    if q["value"] is not None:
        print(f"  {q['name']:<44} {q['value']:>14.6g} 1      deterministic for the seed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="timed part of each run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/kolnet/cli.py", "problems/basket_put_d5.txt") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a kolnet checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        report(result)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps({"machine": machine(), "runs": results}, indent=1))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
