"""Command-line entry point for reproducible experiments.

Subcommands: certify, simulate, build, train, evaluate, scaling-study.
Tables are CSV; all but build_report.csv and trace.csv start with a
comment line recording the config hash and seed.  Identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import rng
from .bounds import (
    ApproximationFamily,
    kolmogorov_certificate,
    put_family,
    scaling_audit,
)
from .constructive import build_mc_network
from .learning import (
    TrainConfig,
    generate_dataset,
    grid_points,
    l2_error,
    noise_floor,
    reference,
    train_erm,
)
from .nets import (
    Architecture,
    ClippedNetwork,
    load_network,
    save_network,
)
from .sde import (
    KolmogorovProblem,
    SimulationError,
    load_problem,
    mc_reference_grid,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _config_hash(args: argparse.Namespace) -> str:
    # The output directory is where results land, not what the experiment is;
    # leaving it out makes reruns into different directories byte-identical.
    # A network file counts by its bytes, so copies of it hash alike.  A
    # problem file counts by its path: the artifact digests in
    # bench/digests.json pin the hashes written from it.  --arch counts by
    # its parsed integers, so "5, 64,64,1" and "05,64,64,1" hash as 5,64,64,1.
    config = {k: str(v) for k, v in vars(args).items() if k not in ("func", "out_dir")}
    if "arch" in config:
        config["arch"] = ",".join(map(str, _positive_ints("--arch", config["arch"])))
    if "network" in config:
        config["network"] = _file_sha256(args.network)
    blob = repr(sorted(config.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_csv(path: Path, header: str, rows, comment: str | None = None) -> None:
    """Write a table into ``path``'s directory, made if missing; the
    ``# comment`` line comes first when a comment is given."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _score(problem: KolmogorovProblem, net: ClippedNetwork, grid: int, paths: int, seed: int):
    """(l2_error, noise_floor, reference kind) of ``net`` on a ``grid``-point grid
    against ``learning.reference`` at ``paths`` paths per point."""
    points = grid_points(problem, grid, rng.child_seeds(seed, 0x671D))
    values, std_errors, kind = reference(problem, points, paths, rng.child_seed(seed, 0xE7A1))
    return l2_error(net, points, values), noise_floor(std_errors), kind


def cmd_certify(args) -> int:
    problem = load_problem(args.problem)
    fam = ApproximationFamily(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(ApproximationFamily)})
    cert = kolmogorov_certificate(problem, args.eps, args.rho, fam, args.C)
    rows = [(q, v, f'"{formula}"') for q, v, formula in cert.rows()]
    # A problem file cannot say how its payoff's networks grow with d: name the exponents assumed.
    exponents = " ".join(f"{f.name}={getattr(fam, f.name)}" for f in dataclasses.fields(fam))
    out = Path(args.out_dir) / "certificate.csv"
    _write_csv(out, "quantity,value,formula", rows, f"config_hash={_config_hash(args)} {exponents}")
    width = max(len(q) for q, _, _ in cert.rows())
    print(f"certificate for {args.problem} eps={args.eps} rho={args.rho} C={args.C}")
    print(f"  exponents {exponents}")
    for q, v, formula in cert.rows():
        print(f"  {q:<{width}}  {v:<24}  {formula}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    points = grid_points(problem, args.grid, rng.child_seeds(args.seed, 0x671D))
    estimates, std_errors = mc_reference_grid(problem, points, args.paths, args.seed)
    rows = [
        tuple(f"{x:.17g}" for x in row) + (f"{est:.17g}", f"{se:.17g}")
        for row, est, se in zip(points, estimates, std_errors)
    ]
    header = ",".join(f"x_{i + 1}" for i in range(problem.dim)) + ",estimate,std_error"
    out = Path(args.out_dir) / "reference.csv"
    _write_csv(out, header, rows, f"config_hash={_config_hash(args)} seed={args.seed}")
    print(f"wrote {out} ({len(rows)} points, {args.paths} paths each)")
    return EXIT_OK


def cmd_build(args) -> int:
    problem = load_problem(args.problem)
    built, report = build_mc_network(problem, args.n, args.retries, grid_size=args.grid,
                                     ref_paths=args.paths, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_network(built, out_dir / "built_network.txt")
    b = report.bounds  # the chosen retry's, repeated on every row
    rows = [(r, f"{e:.17g}", f"{b.theta_norm:.17g}", b.param_count)
            for r, e in enumerate(report.retry_errors)]
    _write_csv(out_dir / "build_report.csv", "retry,l2_error_estimate,theta_norm,param_count", rows)
    print(
        f"built n={args.n} network: P(a)={b.param_count}, "
        f"max|theta|={b.theta_norm:.6g}, best retry {report.chosen_retry} "
        f"(est. L2 {report.retry_errors[report.chosen_retry]:.3e}, "
        f"noise_floor={report.noise_floor:.3e}, {report.reference})"
    )
    print(f"wrote {out_dir / 'built_network.txt'} and {out_dir / 'build_report.csv'}")
    return EXIT_OK


def _run_pipeline(problem, args, widths, m: int, seed: int, bound, out_dir: Path, comment: str):
    """generate -> train -> evaluate against reference; returns summary dict.
    Training and reference flags come from ``args``; ``bound`` None: no projection."""
    arch = Architecture(widths)
    data = generate_dataset(problem, m, seed)
    config = TrainConfig(
        architecture=arch,
        clip_amplitude=problem.clip_amplitude,
        parameter_bound=bound,
        batch_size=args.batch,
        step_size=args.lr,
        iterations=args.iters,
        eval_every=args.eval_every,
        seed=rng.child_seed(seed, 0x7124),
    )
    fit = train_erm(data, config)
    # Scoring does not need the dataset.  Freeing it first also raises glibc's
    # adaptive mmap threshold past the reference grid's per-point arrays, so
    # they are reused from the heap instead of faulted in afresh at each point.
    del data
    err, floor, ref_kind = _score(problem, fit.network, args.grid, args.paths, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_network(fit.trained, out_dir / "trained_network.txt")
    trace = [(it, f"{br:.17g}", f"{fr:.17g}") for it, br, fr in fit.trace]
    _write_csv(out_dir / "trace.csv", "iter,batch_risk,full_risk", trace)
    summary = {
        "d": problem.dim,
        "m": m,
        "architecture": "-".join(str(w) for w in arch.widths),
        "final_empirical_risk": fit.final_risk,
        "l2_error": err,
        "noise_floor": floor,
        "reference": ref_kind,
    }
    _write_csv(
        out_dir / "summary.csv",
        ",".join(summary),
        [tuple(summary.values())],
        comment,
    )
    return summary


def cmd_train(args) -> int:
    problem = load_problem(args.problem)
    widths = _positive_ints("--arch", args.arch)
    if len(widths) < 2 or widths[0] != problem.dim or widths[-1] != 1:
        raise UsageError(f"--arch {args.arch} must run from the problem dimension {problem.dim} to 1")
    out_dir = Path(args.out_dir)
    t0 = time.perf_counter()
    comment = f"config_hash={_config_hash(args)} seed={args.seed}"
    summary = _run_pipeline(problem, args, widths, args.m, args.seed, args.R, out_dir, comment)
    for k, v in summary.items():
        print(f"  {k}: {v}")
    # Timing goes to stdout only: summary.csv must be byte-identical across reruns.
    print(f"  wall_clock_s: {time.perf_counter() - t0:.3f}")
    print(f"wrote {out_dir / 'summary.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    problem = load_problem(args.problem)
    params = load_network(args.network)
    widths = params.architecture.widths
    if widths[0] != problem.dim or widths[-1] != 1:
        raise UsageError(
            f"{args.network}: network maps {widths[0]} inputs to {widths[-1]} outputs, "
            f"but {args.problem} needs {problem.dim} inputs and 1 output"
        )
    net = ClippedNetwork(params, problem.clip_amplitude)
    err, floor, ref_kind = _score(problem, net, args.grid, args.paths, args.seed)
    out = Path(args.out_dir) / "evaluation.csv"
    _write_csv(
        out,
        "l2_error,noise_floor,reference,grid",
        [(f"{err:.17g}", f"{floor:.17g}", ref_kind, args.grid)],
        f"config_hash={_config_hash(args)} seed={args.seed}",
    )
    print(f"l2_error={err:.6e} noise_floor={floor:.6e} ({ref_kind})")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_scaling_study(args) -> int:
    problems = [load_problem(path) for path in args.problems]  # every file checked before training
    dims = [problem.dim for problem in problems]
    if len(set(dims)) < max(len(dims), 3):  # a repeated d would train twice into one d<k>/
        got = ", ".join(f"{path} (d={d})" for path, d in zip(args.problems, dims))
        raise UsageError(f"scaling-study needs problems of 3 distinct dimensions or more, "
                         f"none repeated: {got}")
    out_dir = Path(args.out_dir)
    rows = []
    results = []
    all_hit = True
    for problem, d in zip(problems, dims):
        m = int(args.m_base * d**2)
        summary = _run_pipeline(problem, args, (d, args.width, args.width, 1), m,
                                rng.child_seed(args.seed, d), None, out_dir / f"d{d}",
                                f"config_hash={_config_hash(args)} d={d}")
        hit = summary["l2_error"] <= args.target
        all_hit = all_hit and hit
        rows.append(
            (d, m, f"{summary['l2_error']:.17g}", f"{summary['noise_floor']:.17g}", hit)
        )
        results.append((d, m))
        print(
            f"  d={d}: m={m} l2={summary['l2_error']:.3e} "
            f"target={'hit' if hit else 'MISSED'}"
        )
    audit = scaling_audit(results, threshold=args.threshold)
    verdict = "PASS" if (audit.passed and all_hit) else "FAIL"
    rows_out = [r + (f"{audit.slope:.17g}", f"{audit.r_squared:.17g}", verdict) for r in rows]
    _write_csv(
        out_dir / "scaling.csv",
        "d,m,l2_error,noise_floor,target_hit,slope,r_squared,verdict",
        rows_out,
        f"config_hash={_config_hash(args)} seed={args.seed}",
    )
    print(
        f"audit: slope={audit.slope:.3f} (threshold {args.threshold}), "
        f"R^2={audit.r_squared:.3f} -> {verdict}"
    )
    return EXIT_OK if verdict == "PASS" else EXIT_NUMERIC


def _add_common(p, grid_default=256):
    p.add_argument("--seed", type=int, required=True, help="master seed (no wall-clock defaults)")
    p.add_argument("--out-dir", default="out", help="output directory")
    p.add_argument("--grid", type=int, default=grid_default, help="evaluation grid size")
    p.add_argument("--paths", type=int, default=100_000, help="Monte-Carlo paths per reference point")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kolnet", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="print size/sample certificates")
    p.add_argument("problem")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--C", type=float, default=1.0, help="scale constant (existential; default 1)")
    for name, default in dataclasses.asdict(put_family()).items():
        p.add_argument(f"--{name}", type=float, default=default)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="Monte-Carlo reference grid")
    p.add_argument("problem")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build", help="assemble the Monte-Carlo average network")
    p.add_argument("problem")
    p.add_argument("--n", type=int, required=True, help="Monte-Carlo width")
    p.add_argument("--retries", type=int, default=3)
    _add_common(p, grid_default=64)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="generate data, train by ERM, evaluate")
    p.add_argument("problem")
    p.add_argument("--m", type=int, required=True, help="training sample count")
    p.add_argument("--arch", required=True, help="comma-separated widths, e.g. 1,32,32,1")
    p.add_argument("--R", type=float, default=None, help="parameter bound (optional)")
    p.add_argument("--project", action="store_true", help="project parameters into [-R, R]")
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--eval-every", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="L2 error of a network file vs reference")
    p.add_argument("problem")
    p.add_argument("network")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("scaling-study", help="error-vs-dimension audit")
    p.add_argument("problems", nargs="+", metavar="problem",
                   help="problem files of 3 or more distinct dimensions")
    p.add_argument("--m-base", type=int, default=20000, help="m = m_base * d^2")
    p.add_argument("--target", type=float, default=5e-3)
    p.add_argument("--threshold", type=float, default=3.0)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--iters", type=int, default=15000)
    p.add_argument("--eval-every", type=int, default=1000)
    _add_common(p, grid_default=128)
    p.set_defaults(func=cmd_scaling_study)
    return ap


def _positive_ints(flag: str, text: str) -> tuple:
    """The comma-separated positive integers of a flag's value, or UsageError naming the flag."""
    try:
        values = tuple(int(w) for w in text.split(","))
    except ValueError:
        values = ()
    if not values or min(values) < 1:
        raise UsageError(f"{flag} must be comma-separated positive integers, got {text!r}")
    return values


def _check_args(args) -> None:
    if not 0 <= getattr(args, "seed", 0) < 2**64:  # a stream key is one uint64
        raise UsageError("--seed must be an integer in [0, 2**64)")
    for name in ("grid", "paths", "m", "iters", "batch", "eval_every", "n", "retries",
                 "width", "m_base"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be a positive integer")
    if getattr(args, "paths", 2) < 2:
        raise UsageError("--paths must be at least 2: a Monte-Carlo standard error needs two paths")
    # train's parameter bound: --R and --project only act together.
    R, project = getattr(args, "R", None), getattr(args, "project", False)
    if R is not None and not project:
        raise UsageError("--R needs --project")
    if project and R is None:
        raise UsageError("--project needs --R")
    for name in ("R", "lr", "target", "threshold", "C"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < np.inf:
            raise UsageError(f"--{name} must be a positive finite number")
    for name in ("eps", "rho"):
        if not 0 < getattr(args, name, 0.5) < 1:
            raise UsageError(f"--{name} must be in (0, 1)")
    for f in dataclasses.fields(ApproximationFamily):  # certify's exponents
        low = 0.5 if f.name == "nu" else 0.0
        if not low <= getattr(args, f.name, low) < np.inf:
            raise UsageError(f"--{f.name} must be a finite number of at least {low:g}")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_args(args)
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's names the allocation; a bare one is empty
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulationError, OverflowError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
