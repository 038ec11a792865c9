"""End-to-end tests of the command-line interface."""

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kolnet import cli, constructive, rng, sde
from kolnet.bounds import kolmogorov_certificate, put_family
from kolnet.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from kolnet.nets import ClippedNetwork, Parametrization, evaluate, save_network
from kolnet.sde import load_problem

from helpers import PROBLEMS

PUT_D1 = str(PROBLEMS / "put_d1_gbm.txt")
BASKET_D5 = str(PROBLEMS / "basket_put_d5.txt")
EULER_BASKET_D5 = PROBLEMS.parent / "bench" / "problems" / "euler_basket_d5.txt"


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# certify


def test_certify_writes_table_and_csv(tmp_path, capsys):
    code = run([
        "certify", PUT_D1, "--eps", "0.1", "--rho", "0.05",
        "--C", "1.0", "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert f"certificate for {PUT_D1} eps=0.1" in out
    csv = (tmp_path / "certificate.csv").read_text().splitlines()
    assert csv[0].startswith("# config_hash=")
    assert csv[1] == "quantity,value,formula"
    names = [line.split(",")[0] for line in csv[2:]]
    assert {"m", "P(a)", "R"} <= set(names)


def test_certify_rejects_bad_eps(tmp_path, capsys):
    code = run([
        "certify", PUT_D1, "--eps", "1.5", "--rho", "0.05",
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert "eps" in capsys.readouterr().err


def test_certify_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run([
            "certify", BASKET_D5, "--eps", "0.2", "--rho", "0.1",
            "--out-dir", str(d),
        ]) == EXIT_OK
    assert (a_dir / "certificate.csv").read_bytes() == (b_dir / "certificate.csv").read_bytes()


def test_certify_reads_every_family_flag(tmp_path):
    def rows(problem, *flags):
        out = tmp_path / "_".join((Path(problem).stem,) + flags)
        argv = ["certify", problem, "--eps", "0.01", "--rho", "0.05", *flags, "--out-dir", str(out)]
        assert run(argv) == EXIT_OK
        return dict(line.split(",", 1) for line in (out / "certificate.csv").read_text().splitlines()[2:])

    # The certificate covers the file's domain [0.5, 1.5]^d, where
    # max{1, |u|, |v|} = 1.5: on [0, 1]^d, m would read 2,046,922,865,238 at
    # d = 1 and 72,803,463,884,555 at d = 5.
    for problem, m in ((PUT_D1, "2067682678774"), (BASKET_D5, "73322459222934")):
        cert = kolmogorov_certificate(load_problem(problem), 0.01, 0.05, put_family(), C=1.0)
        defaults = rows(problem)
        assert defaults == {q: f'{v},"{formula}"' for q, v, formula in cert.rows()}
        assert defaults["m"].split(",")[0] == m
    assert rows(BASKET_D5, "--nu", "2")["P(a)"] != defaults["P(a)"]
    # the family has no scale constant (--C is the one), and d, D come from the file
    for flag in ("--family", "--c", "--d", "--D"):
        assert run(["certify", BASKET_D5, "--eps", "0.01", "--rho", "0.05", flag, "1",
                    "--out-dir", str(tmp_path)]) == EXIT_USAGE


def test_certify_reads_the_payoff_architecture(tmp_path, capsys):
    # A (5, 8, 1) payoff: depth 2 and max_width 8, where the capped put's
    # (5, 1, 1, 1) has depth 3 and max_width 5.
    save_network(Parametrization(((np.full((8, 5), 0.1), np.zeros(8)), (np.ones((1, 8)), np.zeros(1)))),
                 tmp_path / "payoff.txt")
    problem = tmp_path / "p.txt"
    problem.write_text(Path(BASKET_D5).read_text().replace(
        "payoff: put 0.2 0.2 0.2 0.2 0.2 1.0", "payoff_file: payoff.txt"))
    assert run(["certify", str(problem), "--eps", "0.01", "--rho", "0.05", "--C", "2",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "certificate.csv").read_text().splitlines()[2:]
    values = dict(line.split(",")[:2] for line in rows)
    assert values["depth"] == "2"
    assert float(values["max_width"]) == pytest.approx(2.0 * 5**0.5 / 0.01 * 8)  # C d^tau eps^-1 8
    cert = kolmogorov_certificate(load_problem(problem), 0.01, 0.05, put_family(), C=2.0)
    assert values["m"] == str(cert.samples)
    # Nothing in a payoff_file says how its networks grow with d, so the
    # certificate names the put's exponents it fell back on, in the file and
    # on stdout.
    assumed = "nu=0.5 alpha=0.0 beta=0.0 gamma=1.0 kappa=0.0 lmbda=0.0"
    comment = (tmp_path / "certificate.csv").read_text().splitlines()[0]
    assert comment.startswith("# config_hash=") and comment.endswith(" " + assumed)
    assert f"exponents {assumed}" in capsys.readouterr().out
    assert run(["certify", str(problem), "--eps", "0.01", "--rho", "0.05", "--gamma", "2",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    assert "gamma=2.0 " in (tmp_path / "certificate.csv").read_text().splitlines()[0]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_reference_csv(tmp_path):
    code = run([
        "simulate", PUT_D1, "--seed", "1", "--out-dir", str(tmp_path),
        "--grid", "8", "--paths", "2000",
    ])
    assert code == EXIT_OK
    lines = (tmp_path / "reference.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "x_1,estimate,std_error"
    assert len(lines) == 10
    est = [float(line.split(",")[1]) for line in lines[2:]]
    assert all(-1.0 <= e <= 1.0 for e in est)


def test_simulate_missing_problem(tmp_path, capsys):
    code = run([
        "simulate", str(tmp_path / "nope.txt"), "--seed", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_USAGE


GBM_D1 = """dim: 1
u: 0.5
v: 1.5
T: 1.0
D: 1.0
steps: 16
gbm: 0.0 0.2
payoff: put 1.0 1.0
"""

EULER_D1 = """dim: 1
u: 0.5
v: 1.5
T: 1.0
D: 1.0
steps: 16
drift_matrix:
  {a}
drift_vector: 0.0
diffusion0:
  0.1
diffusion1:
  0.0
payoff: put 1.0 1.0
"""


@pytest.mark.parametrize(
    "text, message",
    [
        (GBM_D1.replace("gbm: 0.0 0.2\n", ""), ": needs 'gbm' or 'drift_matrix'"),
        (GBM_D1.replace("put 1.0 1.0", "put 1.0"), ":8: 'payoff' needs 2 values, got 1"),
        (EULER_D1.format(a="0.0").replace("steps: 16", "steps: 0"), ":6: steps must be an integer >= 1"),
        (GBM_D1.replace("payoff: put 1.0 1.0", "payoff_file:"), ":8: 'payoff_file' needs a file name"),
        (GBM_D1.replace("steps: 16", "steps: inf"), ":6: 'steps' holds a value that is not finite"),
        (EULER_D1.format(a="0.0").replace("steps: 16", "steps: 1e9"),
         ":6: 'steps' must be an integer of at most 1048576"),
        (EULER_D1.format(a="0.0").replace("steps: 16", "steps: 1e300"),
         ":6: 'steps' must be an integer of at most 1048576"),
        (EULER_D1.format(a="0.0").replace("steps: 16", "steps: 64.7"),
         ":6: 'steps' must be an integer of at most 1048576"),
    ],
    ids=["no_dynamics", "payoff_without_cap", "zero_steps", "empty_payoff_file", "infinite_steps",
         "huge_steps", "overflowing_steps", "fractional_steps"],
)
def test_simulate_bad_problem_file_is_usage_error(tmp_path, capsys, text, message):
    problem = tmp_path / "p.txt"
    problem.write_text(text)
    code = run([
        "simulate", str(problem), "--seed", "1", "--out-dir", str(tmp_path),
        "--grid", "2", "--paths", "10",
    ])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"{problem}{message}" in err
    assert "Traceback" not in err


def test_payoff_file_that_is_a_directory_is_usage_error(tmp_path, capsys):
    problem = tmp_path / "p.txt"
    problem.write_text(GBM_D1.replace("payoff: put 1.0 1.0", "payoff_file: ."))
    code = run(["simulate", str(problem), "--seed", "1", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Is a directory" in err


def test_missing_payoff_file_names_the_problem_line(tmp_path, capsys):
    problem = tmp_path / "p.txt"
    problem.write_text(
        GBM_D1.replace("steps: 16\n", "").replace("payoff: put 1.0 1.0", "payoff_file: missing.txt")
    )
    code = run(["simulate", str(problem), "--seed", "1", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"{problem}:7: " in err
    assert "missing.txt" in err and "No such file or directory" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", PUT_D1, "--grid", "0"],
        ["simulate", PUT_D1, "--paths", "0"],
        ["train", PUT_D1, "--m", "0", "--arch", "1,4,1"],
        ["train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--iters", "-1"],
        ["train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--batch", "0"],
        ["scaling-study", "--dims", "1,2,3", "--eval-every", "0"],
    ],
    ids=["grid", "paths", "m", "iters", "batch", "eval_every"],
)
def test_non_positive_counts_are_usage_errors(tmp_path, capsys, argv):
    code = run(argv + ["--seed", "1", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "must be a positive integer" in err
    assert not any(tmp_path.iterdir())  # rejected before any output is written


CERTIFY = ["certify", PUT_D1, "--eps", "0.1", "--rho", "0.1"]
SCALING = ["scaling-study", "--dims", "1,2,3"]


@pytest.mark.parametrize(
    "argv, needles",
    [
        (["simulate", PUT_D1, "--paths", "1"], ["--paths"]),
        # d = 1 scores against the closed form, so --paths 1 used to pass.
        (["train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--iters", "10", "--paths", "1"],
         ["--paths"]),
        (["train", PUT_D1, "--m", "100", "--arch", "1,a"], ["--arch", "'1,a'"]),
        (["train", PUT_D1, "--m", "100", "--arch", "1,0,1"], ["--arch", "'1,0,1'"]),
        (["train", PUT_D1, "--m", "100", "--arch", "2,4,1"], ["--arch 2,4,1", "dimension 1"]),
        (["scaling-study", "--dims", "1,a,3"], ["--dims", "'1,a,3'"]),
        # d = 0 used to end as "numerical failure: float division by zero", exit 3.
        (["scaling-study", "--dims", "0,1,2"], ["--dims", "'0,1,2'"]),
        (["build", PUT_D1, "--n", "0"], ["--n "]),
        (["build", PUT_D1, "--n", "4", "--retries", "0"], ["--retries"]),
        (["evaluate", PUT_D1, "wide_in.txt"], ["wide_in.txt", PUT_D1]),
        (["evaluate", PUT_D1, "wide_out.txt"], ["wide_out.txt", PUT_D1]),
        # A nan step size used to end as exit 3; -1 and 0 trained uphill or not at all.
        (["train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--lr", "nan"], ["--lr "]),
        (["train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--lr", "-1"], ["--lr "]),
        (["train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--lr", "0"], ["--lr "]),
        (["scaling-study", "--dims", "1,2,3", "--target", "0"], ["--target "]),
        (["scaling-study", "--dims", "1,2,3", "--target", "nan"], ["--target "]),
        (["scaling-study", "--dims", "1,2,3", "--threshold", "-1"], ["--threshold "]),
        (["scaling-study", "--dims", "1,2,3", "--threshold", "inf"], ["--threshold "]),
        (["certify", "missing.txt", "--eps", "0.1", "--rho", "0.1"], ["missing.txt"]),
        (CERTIFY + ["--C", "nan"], ["--C "]),
        (CERTIFY + ["--C", "inf"], ["--C "]),
        (CERTIFY + ["--nu", "nan"], ["--nu "]),
        (CERTIFY + ["--gamma", "inf"], ["--gamma "]),
        # These used to be rejected without naming the flag, or, for a nan
        # --T, --mu or --sigma, to end as exit 3 "numerical failure".
        (CERTIFY + ["--eps", "2"], ["--eps "]),
        (CERTIFY + ["--eps", "nan"], ["--eps "]),
        (CERTIFY + ["--rho", "0"], ["--rho "]),
        (CERTIFY + ["--nu", "0.2"], ["--nu "]),
        (CERTIFY + ["--alpha", "-1"], ["--alpha "]),
        (SCALING + ["--T", "0"], ["--T "]),
        (SCALING + ["--T", "nan"], ["--T "]),
        (SCALING + ["--u", "nan"], ["--u "]),
        (SCALING + ["--u", "2", "--v", "1"], ["--u ", "--v"]),
        (SCALING + ["--m-base", "0"], ["--m-base "]),
        (SCALING + ["--width", "0"], ["--width "]),
        (SCALING + ["--mu", "nan"], ["--mu "]),
        (SCALING + ["--sigma", "nan"], ["--sigma "]),
        # --D is scaling-study's alone: certify reads D from its problem file.
        (SCALING + ["--D", "0.5"], ["--D "]),
        (SCALING + ["--D", "0"], ["--D "]),
        (SCALING + ["--D", "-1"], ["--D "]),
        (SCALING + ["--D", "nan"], ["--D "]),
        # Seeds key uint64 streams: these used to end as exit 3 "numerical failure".
        (["simulate", PUT_D1, "--seed", "-1"], ["--seed "]),
        (["simulate", PUT_D1, "--seed", str(2**64)], ["--seed "]),
    ],
    ids=["paths_one", "train_paths_one_closed_form", "arch_not_integer", "arch_zero_width",
         "arch_wrong_dimension", "dims_not_integer", "dims_zero", "build_n_zero", "build_retries_zero",
         "evaluate_input_width", "evaluate_output_width", "lr_nan", "lr_negative", "lr_zero",
         "target_zero", "target_nan", "threshold_negative", "threshold_infinite",
         "certify_missing_problem", "certify_C_nan",
         "certify_C_infinite", "certify_nu_nan", "certify_gamma_infinite",
         "certify_eps_two", "certify_eps_nan", "certify_rho_zero", "certify_nu_fifth",
         "certify_alpha_negative", "scaling_T_zero", "scaling_T_nan", "scaling_u_nan",
         "scaling_u_above_v", "scaling_m_base_zero", "scaling_width_zero", "scaling_mu_nan",
         "scaling_sigma_nan", "scaling_D_half", "scaling_D_zero", "scaling_D_negative",
         "scaling_D_nan", "seed_negative", "seed_above_uint64"],
)
def test_bad_arguments_name_their_flag_or_file(tmp_path, capsys, argv, needles):
    nets = {"wide_in.txt": (4, 3, 1), "wide_out.txt": (1, 3, 2)}
    for name, widths in nets.items():
        save_network(Parametrization(tuple(
            (np.ones((b, a)), np.zeros(b)) for a, b in zip(widths, widths[1:])
        )), tmp_path / name)
    argv = [str(tmp_path / a) if a in nets else a for a in argv]
    needles = [str(tmp_path / n) if n in nets else n for n in needles]
    out = tmp_path / "out"
    seed = [] if argv[0] == "certify" or "--seed" in argv else ["--seed", "1"]  # certify draws nothing
    code = run(argv + seed + ["--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ")
    assert all(n in err for n in needles), err
    assert not out.exists()  # rejected before any output is written


def test_simulate_diverging_problem_is_numeric_failure(tmp_path, capsys):
    problem = tmp_path / "p.txt"
    problem.write_text(EULER_D1.format(a="1e30"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([
            "simulate", str(problem), "--seed", "1", "--out-dir", str(tmp_path),
            "--grid", "2", "--paths", "10",
        ])
    err = capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == EXIT_NUMERIC
    assert "non-finite state at Euler step" in err
    assert "Traceback" not in err


def test_simulate_overflowing_exact_gbm_is_numeric_failure(tmp_path, capsys):
    problem = tmp_path / "p.txt"
    problem.write_text(GBM_D1.replace("gbm: 0.0 0.2", "gbm: 1000 0.2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([
            "simulate", str(problem), "--seed", "1", "--out-dir", str(tmp_path),
            "--grid", "2", "--paths", "10",
        ])
    err = capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == EXIT_NUMERIC
    assert "non-finite terminal value (exact GBM)" in err


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch, message):
    # train --m 1000000000000 used to end in numpy's _ArrayMemoryError traceback, exit 1.
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate_dataset", exhausted)
    code = run(["train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--seed", "1",
                "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: out of memory: ") and message in err
    assert "Traceback" not in err


def test_simulate_reproducible(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        run([
            "simulate", PUT_D1, "--seed", "7", "--out-dir", str(d),
            "--grid", "4", "--paths", "1000",
        ])
    assert (a_dir / "reference.csv").read_bytes() == (b_dir / "reference.csv").read_bytes()


def test_simulate_euler_same_bytes_at_one_and_two_workers(tmp_path, monkeypatch):
    # At 2 CPUs points 0 and 1 run on two pool threads and point 2 as two
    # pooled Euler chunks; at 1 CPU every point runs in turn on this thread.
    argv = ["simulate", str(EULER_BASKET_D5), "--seed", "4", "--grid", "3", "--paths", "3000"]
    monkeypatch.setattr(sde, "_cpu_quota", lambda: None)
    for workers in (1, 2):
        monkeypatch.setattr(sde.os, "sched_getaffinity", lambda pid, w=workers: set(range(w)),
                            raising=False)
        assert run(argv + ["--out-dir", str(tmp_path / str(workers))]) == EXIT_OK
    one, two = ((tmp_path / w / "reference.csv").read_bytes() for w in ("1", "2"))
    assert one == two


# ---------------------------------------------------------------------------
# build + evaluate


def test_build_then_evaluate(tmp_path, capsys):
    code = run([
        "build", PUT_D1, "--n", "64", "--retries", "2", "--seed", "2",
        "--out-dir", str(tmp_path), "--grid", "16", "--paths", "2000",
    ])
    assert code == EXIT_OK
    net_file = tmp_path / "built_network.txt"
    assert net_file.exists()
    report = (tmp_path / "build_report.csv").read_text().splitlines()
    assert report[0] == "retry,l2_error_estimate,theta_norm,param_count"
    assert len(report) == 3

    code = run([
        "evaluate", PUT_D1, str(net_file), "--seed", "3",
        "--out-dir", str(tmp_path), "--grid", "32", "--paths", "1000",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "closed_form" in out
    lines = (tmp_path / "evaluation.csv").read_text().splitlines()
    assert lines[1] == "l2_error,noise_floor,reference,grid"
    err = float(lines[2].split(",")[0])
    assert err < 1e-2  # n=64 Monte-Carlo width is already accurate


def test_evaluate_reloaded_build_matches_in_memory_network(tmp_path):
    # The file reloads as the in-memory block stacks, so the l2_error that
    # evaluate reports is the in-memory network's, bit for bit.
    basket = str(PROBLEMS / "basket_put_d5.txt")
    grid, paths, seed = 8, 400, 3
    code = run([
        "build", basket, "--n", "128", "--retries", "2", "--seed", "2",
        "--out-dir", str(tmp_path), "--grid", "8", "--paths", "400",
    ])  # the same build as below
    assert code == EXIT_OK
    code = run([
        "evaluate", basket, str(tmp_path / "built_network.txt"), "--seed", str(seed),
        "--out-dir", str(tmp_path), "--grid", str(grid), "--paths", str(paths),
    ])
    assert code == EXIT_OK
    problem = load_problem(basket)
    built, _ = constructive.build_mc_network(
        problem, n=128, retries=2, grid_size=8, ref_paths=400, seed=2
    )
    assert [W.ndim for W, _ in built.layers] == [2, 3, 2]
    err, floor, kind = cli._score(
        problem, ClippedNetwork(built, problem.clip_amplitude), grid, paths, seed
    )
    row = (tmp_path / "evaluation.csv").read_text().splitlines()[2].split(",")
    assert kind == "monte_carlo"
    assert row[:3] == [f"{err:.17g}", f"{floor:.17g}", kind]


# W1=-1, B1=1, W2=-1, B2=0.5, W3=1, B3=0: first layer and cap of the capped
# put, but 0.3/0.5/0.5 at x = 0.8/1.0/1.2 where the put is 0.2/0/0.
NOT_A_PUT = "arch: 1 1 1 1\nW1\n-1\nB1\n1\nW2\n-1\nB2\n0.5\nW3\n1\nB3\n0\n"
PUT = "arch: 1 1 1 1\nW1\n-1\nB1\n1\nW2\n-1\nB2\n1\nW3\n-1\nB3\n1\n"
# Widths (1, 2, 1): one ReLU(1 - x) unit per hidden row, averaged.
TWO_UNIT_PUT = "arch: 1 2 1\nW1\n-1\n-1\nB1\n1 1\nW2\n0.5 0.5\nB2\n0\n"


@pytest.mark.parametrize(
    "payoff, kind",
    [(NOT_A_PUT, "monte_carlo"), (PUT, "closed_form"), (None, "closed_form"),
     (TWO_UNIT_PUT, "monte_carlo"), ("payoff: put 1.0 0.5", "monte_carlo"),
     ("payoff: put -1.0 1.0", "monte_carlo")],
    ids=["not_a_put_file", "put_file", "put_spec", "widths_not_1_1_1_1", "cap_not_D",
         "negative_weight"],
)
def test_closed_form_reference_only_for_the_capped_put(tmp_path, payoff, kind):
    problem = PUT_D1
    if payoff is not None:
        spec = payoff if payoff.startswith("payoff:") else "payoff_file: payoff.txt"
        (tmp_path / "payoff.txt").write_text(payoff)
        problem = tmp_path / "p.txt"
        problem.write_text(GBM_D1.replace("payoff: put 1.0 1.0", spec))
    if payoff == NOT_A_PUT:
        values = evaluate(load_problem(problem).payoff, np.array([[0.8], [1.0], [1.2]]))[:, 0]
        assert values == pytest.approx([0.3, 0.5, 0.5])
    net = tmp_path / "net.txt"
    net.write_text(PUT)
    code = run([
        "evaluate", str(problem), str(net), "--seed", "1", "--out-dir", str(tmp_path),
        "--grid", "4", "--paths", "200",
    ])
    assert code == EXIT_OK
    assert (tmp_path / "evaluation.csv").read_text().splitlines()[2].split(",")[2] == kind


def test_build_violated_cap_is_numeric_failure(tmp_path, capsys, monkeypatch):
    verify = constructive.verify_construction_bounds
    monkeypatch.setattr(
        constructive, "verify_construction_bounds", lambda *a: replace(verify(*a), param_cap=0)
    )
    code = run([
        "build", PUT_D1, "--n", "8", "--retries", "1", "--seed", "2",
        "--out-dir", str(tmp_path), "--grid", "4", "--paths", "100",
    ])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "numerical failure: construction bounds violated" in err
    assert "Traceback" not in err


def test_evaluate_truncated_network_is_usage_error(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text("arch: 1 2 1\nW1\n0.5\n")
    code = run([
        "evaluate", PUT_D1, str(net_file), "--seed", "3",
        "--out-dir", str(tmp_path), "--grid", "4", "--paths", "100",
    ])
    assert code == EXIT_USAGE
    assert f"{net_file}: file ends before row 2 of W1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train

def test_train_diverging_step_size_is_numeric_failure(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([
            "train", PUT_D1, "--m", "500", "--arch", "1,16,16,1", "--iters", "300",
            "--lr", "1e200", "--seed", "1", "--out-dir", str(tmp_path),
            "--grid", "8", "--paths", "100",
        ])
    err = capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == EXIT_NUMERIC
    assert "numerical failure: training diverged at iteration" in err
    assert not (tmp_path / "summary.csv").exists()


def test_train_pipeline_small(tmp_path, capsys):
    code = run([
        "train", PUT_D1, "--m", "4000", "--arch", "1,16,1",
        "--iters", "3000", "--lr", "0.003", "--seed", "5",
        "--out-dir", str(tmp_path), "--grid", "64", "--paths", "1000",
    ])
    assert code == EXIT_OK
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[0] == "d"
    vals = dict(zip(summary[1].split(","), summary[2].split(",")))
    assert vals["reference"] == "closed_form"
    assert float(vals["l2_error"]) < 1e-2
    assert (tmp_path / "trained_network.txt").exists()
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,batch_risk,full_risk"


def test_train_reruns_byte_identical(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run([
            "train", PUT_D1, "--m", "2000", "--arch", "1,8,1", "--iters", "200",
            "--eval-every", "100", "--seed", "6", "--out-dir", str(d),
            "--grid", "16", "--paths", "500",
        ]) == EXIT_OK
    # Timing is printed, never written: it differs on every run.
    assert "wall_clock_s" in capsys.readouterr().out
    assert "wall_clock_s" not in (a_dir / "summary.csv").read_text()
    for name in ("summary.csv", "trace.csv", "trained_network.txt"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


def test_evaluate_hashes_network_bytes_not_path(tmp_path, capsys):
    assert run([
        "train", PUT_D1, "--m", "2000", "--arch", "1,8,1", "--iters", "200",
        "--eval-every", "100", "--seed", "6", "--out-dir", str(tmp_path),
        "--grid", "16", "--paths", "500",
    ]) == EXIT_OK
    network = (tmp_path / "trained_network.txt").read_bytes()
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "trained_network.txt").write_bytes(network)
        assert run([
            "evaluate", PUT_D1, str(tmp_path / name / "trained_network.txt"), "--seed", "3",
            "--out-dir", str(tmp_path / name), "--grid", "16", "--paths", "500",
        ]) == EXIT_OK
    a, b = ((tmp_path / name / "evaluation.csv").read_bytes() for name in ("a", "b"))
    assert a == b


@pytest.mark.parametrize("argv, spellings, want", [
    # The bench's train command line: its summary.csv pins this hash.
    (["train", "problems/basket_put_d5.txt", "--m", "100000", "--arch", "{}", "--batch", "512",
      "--lr", "3e-3", "--iters", "3000", "--eval-every", "500", "--grid", "64", "--paths", "20000",
      "--seed", "0"], ("5,64,64,1", "5, 64,64,1", "05,64,64,1"), "9d911b5dbaa4"),
    (["scaling-study", "--dims", "{}", "--seed", "4"], ("1,2,3", "1, 2, 3", "01,2,3"), "d119182f89e4"),
], ids=["arch", "dims"])
def test_config_hash_reads_arch_and_dims_as_integers(argv, spellings, want):
    for spelling in spellings:
        args = cli.build_parser().parse_args([w.format(spelling) for w in argv])
        assert cli._config_hash(args) == want, spelling


def test_train_missing_args_usage_error(tmp_path):
    assert run(["train", PUT_D1, "--seed", "1"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--R", "5"], "--R"),
        (["--project"], "--project"),
        (["--R", "0", "--project"], "--R"),
        (["--R", "-1", "--project"], "--R"),
        (["--R", "nan", "--project"], "--R"),
    ],
    ids=["R_alone", "project_alone", "R_zero", "R_negative", "R_nan"],
)
def test_parameter_bound_flags_are_checked(tmp_path, capsys, flags, flag):
    code = run([
        "train", PUT_D1, "--m", "100", "--arch", "1,4,1", "--iters", "10",
        "--seed", "1", "--out-dir", str(tmp_path), *flags,
    ])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {flag} ")
    assert not any(tmp_path.iterdir())  # rejected before any output is written


# ---------------------------------------------------------------------------
# scaling-study


def test_scaling_study_needs_three_dims(tmp_path, capsys):
    code = run([
        "scaling-study", "--dims", "1,2", "--seed", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert "3 distinct" in capsys.readouterr().err


def test_scaling_study_rejects_repeated_dims(tmp_path, capsys):
    # A repeated d would train twice into one d<k>/ directory and count twice
    # in the slope fit.
    out_dir = tmp_path / "out"
    code = run([
        "scaling-study", "--dims", "1,2,2,3", "--m-base", "10", "--iters", "2",
        "--grid", "2", "--paths", "10", "--seed", "1", "--out-dir", str(out_dir),
    ])
    assert code == EXIT_USAGE
    assert "--dims" in capsys.readouterr().err
    assert not out_dir.exists()


def test_scaling_study_runs_the_train_pipeline(tmp_path):
    # The study's d = 2 run writes what `train` writes for the same problem,
    # budget m_base * d^2, architecture and the study's child seed for d.
    flags = ["--iters", "60", "--eval-every", "20", "--batch", "512", "--lr", "0.002",
             "--grid", "8", "--paths", "500"]
    study = tmp_path / "study"
    code = run([
        "scaling-study", "--dims", "1,2,3", "--m-base", "200", "--width", "8", *flags,
        "--seed", "4", "--out-dir", str(study),
    ])
    assert code in (EXIT_OK, EXIT_NUMERIC)
    problem = tmp_path / "d2.txt"
    problem.write_text(
        "dim: 2\nu: 0.5\nv: 1.5\nT: 1.0\nD: 1.0\ngbm: 0.0 0.2\npayoff: put 0.5 0.5 1.0\n"
    )
    train = tmp_path / "train"
    code = run([
        "train", str(problem), "--m", "800", "--arch", "2,8,8,1", *flags,
        "--seed", str(rng.child_seed(4, 2)), "--out-dir", str(train),
    ])
    assert code == EXIT_OK
    for name in ("trained_network.txt", "trace.csv"):
        assert (train / name).read_bytes() == (study / "d2" / name).read_bytes()
    # Line 0 is each command's own config-hash comment.
    summary = [(d / "summary.csv").read_text().splitlines()[1:] for d in (train, study / "d2")]
    assert summary[0] == summary[1]


def test_scaling_study_tiny(tmp_path, capsys):
    # Deliberately small budgets: exercises the loop, CSV shape, and audit
    # wiring; the acceptance suite runs the full-scale version.
    code = run([
        "scaling-study", "--dims", "1,2,3", "--m-base", "2000",
        "--iters", "4000", "--lr", "0.003", "--width", "16",
        "--grid", "32", "--paths", "2000", "--target", "0.05",
        "--seed", "9", "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_NUMERIC)
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[1] == "d,m,l2_error,noise_floor,target_hit,slope,r_squared,verdict"
    assert len(lines) == 5
    slope = float(lines[2].split(",")[5])
    assert slope == pytest.approx(2.0, abs=1e-9)  # m = m_base * d^2 exactly


# ---------------------------------------------------------------------------
# top-level


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_no_wall_clock_seed_default():
    # Seed is mandatory for every experiment command.
    assert run(["simulate", PUT_D1]) == EXIT_USAGE
