"""End-to-end tests of the command-line interface."""

import warnings
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kolnet import cli, constructive, sde
from kolnet.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from kolnet.nets import ClippedNetwork, evaluate
from kolnet.sde import load_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PUT_D1 = str(PROBLEMS / "put_d1_gbm.txt")
EULER_BASKET_D5 = PROBLEMS.parent / "bench" / "problems" / "euler_basket_d5.txt"


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# certify


def test_certify_writes_table_and_csv(tmp_path, capsys):
    code = run([
        "certify", "--d", "1", "--eps", "0.1", "--rho", "0.05",
        "--C", "1.0", "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "certificate for d=1" in out
    csv = (tmp_path / "certificate.csv").read_text().splitlines()
    assert csv[0].startswith("# config_hash=")
    assert csv[1] == "quantity,value,formula"
    names = [line.split(",")[0] for line in csv[2:]]
    assert {"m", "P(a)", "R"} <= set(names)


def test_certify_rejects_bad_eps(tmp_path, capsys):
    code = run([
        "certify", "--d", "1", "--eps", "1.5", "--rho", "0.05",
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert "eps" in capsys.readouterr().err


def test_certify_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run([
            "certify", "--d", "2", "--eps", "0.2", "--rho", "0.1",
            "--out-dir", str(d),
        ]) == EXIT_OK
    assert (a_dir / "certificate.csv").read_bytes() == (b_dir / "certificate.csv").read_bytes()


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
        (EULER_D1.format(a="0.0").replace("steps: 16", "steps: 0"), ":6: 'steps' must be at least 1"),
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


def test_simulate_reproducible(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        run([
            "simulate", PUT_D1, "--seed", "7", "--out-dir", str(d),
            "--grid", "4", "--paths", "1000",
        ])
    assert (a_dir / "reference.csv").read_bytes() == (b_dir / "reference.csv").read_bytes()


def test_simulate_euler_same_bytes_at_one_and_two_workers(tmp_path, monkeypatch):
    # At 2 workers the 3,000 paths of each point run as two pooled chunks.
    argv = ["simulate", str(EULER_BASKET_D5), "--seed", "4", "--grid", "3", "--paths", "3000"]
    for workers in (1, 2):
        monkeypatch.setattr(sde, "_usable_cpus", lambda w=workers: w)
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
    ])  # the same BuildSpec as below
    assert code == EXIT_OK
    code = run([
        "evaluate", basket, str(tmp_path / "built_network.txt"), "--seed", str(seed),
        "--out-dir", str(tmp_path), "--grid", str(grid), "--paths", str(paths),
    ])
    assert code == EXIT_OK
    problem = load_problem(basket)
    built, _ = constructive.build_mc_network(problem, constructive.BuildSpec(
        n=128, payoff=problem.payoff, retries=2, grid_size=8, ref_paths=400, seed=2,
    ))
    assert [W.ndim for W, _ in built.layers] == [2, 3, 2]
    err, floor, kind = cli._score(
        problem, ClippedNetwork(built, problem.clip_amplitude),
        Namespace(grid=grid, paths=paths, seed=seed),
    )
    row = (tmp_path / "evaluation.csv").read_text().splitlines()[2].split(",")
    assert kind == "monte_carlo"
    assert row[:3] == [f"{err:.17g}", f"{floor:.17g}", kind]


# W1=-1, B1=1, W2=-1, B2=0.5, W3=1, B3=0: first layer and cap of the capped
# put, but 0.3/0.5/0.5 at x = 0.8/1.0/1.2 where the put is 0.2/0/0.
NOT_A_PUT = "arch: 1 1 1 1\nW1\n-1\nB1\n1\nW2\n-1\nB2\n0.5\nW3\n1\nB3\n0\n"
PUT = "arch: 1 1 1 1\nW1\n-1\nB1\n1\nW2\n-1\nB2\n1\nW3\n-1\nB3\n1\n"


@pytest.mark.parametrize(
    "payoff, kind",
    [(NOT_A_PUT, "monte_carlo"), (PUT, "closed_form"), (None, "closed_form")],
    ids=["not_a_put_file", "put_file", "put_spec"],
)
def test_closed_form_reference_only_for_the_capped_put(tmp_path, payoff, kind):
    problem = PUT_D1
    if payoff is not None:
        (tmp_path / "payoff.txt").write_text(payoff)
        problem = tmp_path / "p.txt"
        problem.write_text(GBM_D1.replace("payoff: put 1.0 1.0", "payoff_file: payoff.txt"))
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


def test_train_missing_args_usage_error(tmp_path):
    assert run(["train", PUT_D1, "--seed", "1"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# scaling-study


def test_scaling_study_needs_three_dims(tmp_path, capsys):
    code = run([
        "scaling-study", "--dims", "1,2", "--seed", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert "3 distinct" in capsys.readouterr().err


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
