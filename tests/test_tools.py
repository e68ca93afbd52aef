"""tools/output_delta.py quotes each moved output file; tools/bench_pairs.py plans and summarizes alternated pairs
and A/A runs; tools/scaling.py plans and summarizes its runs per grid."""

import importlib.util
import json
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from zitterlab.fileio import write_csv, write_json, write_zlab_frame

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def output_delta():
    spec = importlib.util.spec_from_file_location("output_delta", TOOLS / "output_delta.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, scale, extra=None):
    """One config directory 0/ with a CSV, a JSON and a .zlab file."""
    out = root / "0"
    out.mkdir(parents=True)
    write_csv(out / "a.csv", ["t", "x"], [[0.0, 1.0], [1.0, 2.0 * scale]])
    write_json(out / "b.json", {"gap": [4.0, 8.0 * scale], "name": "run", "zero": 0.0 if scale == 1 else 1e-3})
    write_zlab_frame(out / "c.zlab", np.array([[1.0 + 1.0j, 2.0], [0.0, -1.0]]) * scale, 10.0, 0.5)
    write_json(out / "same.json", {"k": 1})
    if extra:
        write_json(out / extra, {"k": 2})


def test_quotes_each_moved_file(output_delta, tmp_path, capsys):
    write_tree(tmp_path / "A", 1.0)
    write_tree(tmp_path / "B", 1.5, extra="new.json")
    assert output_delta.main([str(tmp_path / "A"), str(tmp_path / "B")]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert set(lines) == {"0:a.csv", "0:b.json", "0:c.zlab", "0:new.json"}
    # a.csv: 2.0 -> 3.0 is the one changed cell
    assert lines["0:a.csv"] == "1/4 numbers changed, max abs 1.000e+00, max rel 5.000e-01"
    # b.json: 8 -> 12, and a zero that became nonzero
    assert lines["0:b.json"] == "2/3 numbers changed, max abs 4.000e+00, max rel inf"
    # c.zlab: 2 -> 3 is the largest move; the zero, the half width and the time stay
    assert lines["0:c.zlab"] == "3/6 numbers changed, max abs 1.000e+00, max rel 5.000e-01"
    assert lines["0:new.json"] == f"only in {tmp_path / 'B'}"


def test_structure_change_is_named(output_delta, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["t", "x"], [[0.0, 1.0], [1.0, 2.0]])
    write_csv(b, ["t", "x"], [[0.0], [1.0]])
    assert output_delta.delta(str(a), str(b)) == "structure or text differs"  # a row less
    write_csv(b, ["t", "x"], [["0", "one"], [1.0, 2.0]])
    assert output_delta.delta(str(a), str(b)) == "structure or text differs"  # a number became text


def test_added_and_removed_keys_are_named(output_delta, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"gap": [4.0, 8.0], "name": "run", "old": {"k": 1}, "rate": 1.0})
    write_json(b, {"gap": [4.0, 9.0], "name": "run", "reference": {"dt": 0.005, "steps": 200}, "rate": 1.0})
    # the numbers present in both files are quoted: 8 -> 9 of gap, rate unchanged
    assert output_delta.delta(str(a), str(b)) == (
        "1/3 numbers changed, max abs 1.000e+00, max rel 1.250e-01; added reference; removed old"
    )
    write_json(b, {"gap": [4.0, 8.0], "name": "run", "old": {"k": 1, "j": 2}, "rate": 1.0})
    assert output_delta.delta(str(a), str(b)) == (
        "0/4 numbers changed, max abs 0.000e+00, max rel 0.000e+00; added old.j"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["t", "x", "z"], [[0.0, 1.0], [1.0, 2.0], [5.0, 6.0]])
    write_csv(b, ["y", "t", "x"], [[7.0, 8.0], [0.0, 1.0], [1.0, 4.0]])
    assert output_delta.delta(str(a), str(b)) == (
        "1/4 numbers changed, max abs 2.000e+00, max rel 1.000e+00; added y; removed z"
    )


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ENV = {"nproc": 2, "platform": "Linux", "python": "3.11", "numpy": "2.4"}


def synthetic_run(wall_s, setup_s=0.2, rss=50.0):
    return {"correct": True, "attempted": 10, "failed": 0, "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss}


@pytest.mark.parametrize("n_pairs", [2, 5, 10])
def test_pair_order_is_seeded_and_both_orders_occur(bench_pairs, n_pairs):
    plans = {seed: bench_pairs.plan(n_pairs, seed) for seed in range(70, 90)}
    for seed, pairs in plans.items():
        assert pairs == bench_pairs.plan(n_pairs, seed)  # the same order for the same seed
        assert [pair_seed for pair_seed, _ in pairs] == list(range(seed, seed + n_pairs))
        firsts = [first for _, first in pairs]
        # equal shares, the parent taking the odd one out: both orders occur
        assert firsts.count("parent") == (n_pairs + 1) // 2 and firsts.count("change") == n_pairs // 2
    # the order is drawn, not fixed: seeds give different orders, and not always strict alternation
    orders = {tuple(first for _, first in pairs) for pairs in plans.values()}
    assert len(orders) > 1
    assert any(order != tuple(bench_pairs.SIDES[k % 2] for k in range(n_pairs)) for order in orders)


def test_summary_of_synthetic_pairs(bench_pairs, monkeypatch, tmp_path):
    walls = {"parent": [1.0, 1.2, 0.9, 1.1, 1.3], "change": [0.5, 0.6, 1.0, 0.55, 0.7]}
    calls = []

    def fake_run(checkout, workload, seed):
        side = "parent" if checkout.endswith("a") else "change"
        calls.append((workload, seed, side))
        return synthetic_run(walls[side][(seed - 10) % 5], rss=50.0 if side == "parent" else 49.0), UNITS, ENV

    def no_subprocess(*args, **kwargs):
        raise AssertionError("started a subprocess")

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    monkeypatch.setattr(bench_pairs, "describe", lambda checkout: "abc1234: parent")
    monkeypatch.chdir(tmp_path)
    argv = ["a", "b", "--pr", "7", "--workload", "ensemble", "--pairs", "5", "--seed", "10", "--note", "x"]
    assert bench_pairs.main(argv + ["--check", "guided"]) == 0
    # one run per side per pair, the first side as plan() draws it; the check runs as
    # many pairs with the seeds that follow and the draw of its own first seed
    def runs(workload, first_seed):
        other = {"parent": "change", "change": "parent"}
        return [(workload, seed, side) for seed, first in bench_pairs.plan(5, first_seed) for side in (first, other[first])]

    assert calls == runs("ensemble", 10) + runs("guided", 15)
    doc = json.loads((tmp_path / "BENCH_pr7_ensemble.json").read_text())
    assert f"--seconds {bench_pairs.SECONDS:g} --trace 0" in doc["command"]
    assert [p["first"] for p in doc["pairs"]] == [first for _, first in bench_pairs.plan(5, 10)]
    assert [p["first"] for p in doc["no_move_checks"]["guided"]["pairs"]] == [f for _, f in bench_pairs.plan(5, 15)]
    assert [p["seed"] for p in doc["pairs"]] == [10, 11, 12, 13, 14]
    wall = doc["summary"]["wall_s"]
    # inclusive quartiles of 0.9, 1.0, 1.1, 1.2, 1.3 and of 0.5, 0.55, 0.6, 0.7, 1.0
    assert wall["parent"] == pytest.approx({"q1": 1.0, "median": 1.1, "q3": 1.2})
    assert wall["change"] == pytest.approx({"q1": 0.55, "median": 0.6, "q3": 0.7})
    assert wall["unit"] == "s" and wall["change_lower_in_pairs"] == "4/5"  # pair 12 read 0.9 -> 1.0
    assert doc["summary"]["setup_s"]["change_lower_in_pairs"] == "0/5"  # equal is not lower
    assert doc["summary"]["peak_rss_mb"]["change_lower_in_pairs"] == "5/5"
    assert doc["parent"] == "abc1234: parent" and doc["change"] == "x"
    checks = doc["no_move_checks"]
    assert checks["guided"]["seeds"] == "15..19" and checks["guided"]["summary"] == doc["summary"]



def test_one_pair_summarizes_to_its_values(bench_pairs):
    pairs = [{"seed": 1, "first": "parent", "parent": synthetic_run(2.0), "change": synthetic_run(3.0)}]
    summary = bench_pairs.summarize(pairs, UNITS)
    assert summary["wall_s"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert summary["wall_s"]["change_lower_in_pairs"] == "0/1"
    assert summary["wall_s"]["ratio"] == {"median": 1.5, "low": 1.5, "high": 1.5, "coverage": 0.0}


def test_paired_ratio_and_its_sign_test_interval(bench_pairs):
    # ten pairs: the change reads 0.70 .. 0.79 of the parent, in shuffled order
    ratios = [0.74, 0.71, 0.79, 0.70, 0.76, 0.73, 0.78, 0.72, 0.77, 0.75]
    pairs = [
        {"seed": k, "first": "parent", "parent": synthetic_run(2.0, rss=40.0), "change": synthetic_run(2.0 * r)}
        for k, r in enumerate(ratios)
    ]
    ratio = bench_pairs.summarize(pairs, UNITS)["wall_s"]["ratio"]
    # n = 10: P(B < 2) = 11/1024 <= 0.025 < P(B < 3) = 56/1024, so the 2nd smallest and 2nd largest
    assert ratio == pytest.approx({"median": 0.745, "low": 0.71, "high": 0.78, "coverage": 1 - 22 / 1024})
    assert ratio["high"] < 1  # the interval excludes 1
    assert bench_pairs.summarize(pairs, UNITS)["peak_rss_mb"]["ratio"]["median"] == 1.25
    # n = 20: k = 6 (P(B < 6) = 0.0207, P(B < 7) = 0.0577); n = 5 is too few for 95%: min and max at 1 - 2/32
    interval = bench_pairs.sign_interval(list(range(20)))
    assert (interval["low"], interval["high"]) == (5, 14) and interval["coverage"] == pytest.approx(0.9586, abs=1e-4)
    assert bench_pairs.sign_interval([3, 1, 2, 5, 4]) == {"median": 3, "low": 1, "high": 5, "coverage": 0.9375}


def test_aa_runs_a_checkout_against_a_copy_of_itself(bench_pairs, monkeypatch, tmp_path):
    checkout = tmp_path / "repo"
    for name in ("src/zitterlab/a.py", "perfbench/run.py", "perfbench/work/old.json", ".git/HEAD"):
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(name)
    seen = {}

    def fake_run(path, workload, seed):
        seen.setdefault(path, sorted(str(p.relative_to(path)) for p in Path(path).rglob("*") if p.is_file()))
        return synthetic_run(1.0 if path == str(checkout) else 1.1), UNITS, ENV

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "describe", lambda path: "abc1234: parent")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):  # CHANGE and --aa together
        bench_pairs.main([str(checkout), "b", "--aa", "--workload", "process", "--pairs", "2", "--seed", "1"])
    with pytest.raises(SystemExit):  # no CHANGE and no --aa
        bench_pairs.main([str(checkout), "--pr", "1", "--note", "x", "--workload", "process", "--pairs", "2", "--seed", "1"])
    assert bench_pairs.main([str(checkout), "--aa", "--workload", "process", "--pairs", "4", "--seed", "1"]) == 0
    (copy,) = set(seen) - {str(checkout)}
    # the copy holds the tree without .git and perfbench/work, and is removed afterwards
    assert seen[copy] == ["perfbench/run.py", "src/zitterlab/a.py"] and not os.path.exists(copy)
    doc = json.loads((tmp_path / "BENCH_aa_process.json").read_text())
    assert doc["change"].startswith("A/A") and doc["summary"]["wall_s"]["ratio"]["median"] == pytest.approx(1.1)


@pytest.fixture
def outside_git(monkeypatch, tmp_path):
    """Two directories that git sees as no work tree, and tmp_path as the working directory."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    return str(tmp_path / "parent"), str(tmp_path / "change")


def test_a_parent_outside_git_fails_before_any_run(bench_pairs, monkeypatch, tmp_path, outside_git):
    runs = []

    def fake_run(checkout, workload, seed):
        runs.append((checkout, workload, seed))
        return synthetic_run(1.0), UNITS, ENV

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = [*outside_git, "--pr", "1", "--note", "x", "--workload", "process", "--pairs", "2", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert runs == [] and not list(tmp_path.glob("BENCH_*"))
    message = str(exc.value)
    assert message.startswith(f"cannot describe {outside_git[0]}: fatal: not a git repository") and "\n" not in message


@pytest.fixture(scope="module")
def scaling():
    spec = importlib.util.spec_from_file_location("scaling", TOOLS / "scaling.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaling_plan_and_summary(scaling, monkeypatch, tmp_path):
    assert scaling.plan(2) == [256, 512, 1024, 256, 512, 1024]
    calls = []

    def fake_run(cmd, env, **kwargs):
        # one fresh interpreter per run, handed the config text and an output directory
        assert cmd[1] == "-c" and env["PYTHONPATH"].endswith("src") and os.path.isdir(cmd[4])
        n = int(cmd[3].removeprefix("scenario = equivariance\nn_grid = ").rstrip("\n"))
        calls.append(n)
        k = calls.count(n)
        run = {"wall_s": n / 1000 + k / 10, "peak_rss_mb": n / 10 - k, "passed": k != 3 or n != 512, "numpy": "2.4"}
        return types.SimpleNamespace(stdout=f"noise\n{json.dumps(run)}\n")

    monkeypatch.setattr(scaling.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    # the 512 grid's third run failed its checks
    assert scaling.main(["--pr", "9"]) == 1
    assert calls == scaling.plan(scaling.RUNS)
    doc = json.loads((tmp_path / "BENCH_pr9_scaling.json").read_text())
    assert [r["n_grid"] for r in doc["runs"]] == calls
    assert doc["machine"].endswith("numpy 2.4")
    summary = doc["summary"]
    assert list(summary) == ["256", "512", "1024"]
    # walls 1.124, 1.224, ..., 1.524 and peaks 101.4, 100.4, ..., 97.4 at n = 1024
    assert summary["1024"]["wall_s"] == pytest.approx({"unit": "s", "q1": 1.224, "median": 1.324, "q3": 1.424, "max": 1.524})
    assert summary["1024"]["peak_rss_mb"] == pytest.approx(
        {"unit": "MB", "q1": 98.4, "median": 99.4, "q3": 100.4, "max": 101.4}
    )


def test_scaling_series_with_the_parent_interleaved(scaling, bench_pairs, monkeypatch, tmp_path):
    assert scaling.plan(1, "process_free") == [400, 800, 1600]
    assert scaling.plan(2, "convergence") == [4, 8, 16, 4, 8, 16]
    calls = []

    def fake_run(cmd, env, **kwargs):
        side = "parent" if env["PYTHONPATH"] == str(tmp_path / "p" / "src") else "change"
        T = int(cmd[3].removeprefix("scenario = process_free\nvelocity = circular\nT = ").rstrip("\n"))
        calls.append((T, side))
        rss = 60.0 if side == "change" else T / 10
        run = {"wall_s": T / 1000, "peak_rss_mb": rss, "passed": True, "numpy": "2.4"}
        return types.SimpleNamespace(stdout=json.dumps(run))

    monkeypatch.setattr(scaling.subprocess, "run", fake_run)
    monkeypatch.setattr(scaling, "describe", lambda checkout: "abc1234: parent")
    monkeypatch.chdir(tmp_path)
    assert scaling.main(["--pr", "9", "--series", "process_free", "--parent", str(tmp_path / "p")]) == 0
    # each size once per round, both sides per run, the side that runs first drawn by bench_pairs.plan seeded with --pr
    sizes = scaling.plan(scaling.RUNS, "process_free")
    firsts = [first for _, first in bench_pairs.plan(len(sizes), 9)]
    assert calls == [
        (T, side) for T, first in zip(sizes, firsts) for side in (first, "change" if first == "parent" else "parent")
    ]
    doc = json.loads((tmp_path / "BENCH_pr9_scaling.json").read_text())
    assert doc["scenario"].startswith("process_free") and doc["parent"]["commit"] == "abc1234: parent"
    assert [r["T"] for r in doc["runs"]] == [r["T"] for r in doc["parent"]["runs"]] == sizes
    assert [r["first"] for r in doc["runs"]] == [r["first"] for r in doc["parent"]["runs"]] == firsts
    assert firsts.count("parent") == 8 and any(a == b for a, b in zip(firsts, firsts[1:]))  # not strict alternation
    assert list(doc["summary"]) == ["400", "800", "1600"]
    assert doc["summary"]["1600"]["peak_rss_mb"]["median"] == 60.0
    assert doc["parent"]["summary"]["1600"]["peak_rss_mb"]["median"] == 160.0


def test_scaling_guided_process_series_grows_the_grid(scaling, bench_pairs, monkeypatch, tmp_path):
    assert scaling.plan(2, "guided_process") == [128, 256, 512, 128, 256, 512]
    calls = []

    def fake_run(cmd, env, **kwargs):
        side = "parent" if env["PYTHONPATH"] == str(tmp_path / "p" / "src") else "change"
        n = int(cmd[3].removeprefix("scenario = guided_process\nn_grid = ").rstrip("\n"))
        calls.append((n, side))
        run = {"wall_s": n / (2000 if side == "change" else 1000), "peak_rss_mb": 40.0, "passed": True, "numpy": "2.4"}
        return types.SimpleNamespace(stdout=json.dumps(run))

    monkeypatch.setattr(scaling.subprocess, "run", fake_run)
    monkeypatch.setattr(scaling, "describe", lambda checkout: "abc1234: parent")
    monkeypatch.chdir(tmp_path)
    assert scaling.main(["--pr", "9", "--series", "guided_process", "--parent", str(tmp_path / "p")]) == 0
    sizes = scaling.plan(scaling.RUNS, "guided_process")
    firsts = [first for _, first in bench_pairs.plan(len(sizes), 9)]
    assert calls == [
        (n, side) for n, first in zip(sizes, firsts) for side in (first, "change" if first == "parent" else "parent")
    ]
    doc = json.loads((tmp_path / "BENCH_pr9_scaling.json").read_text())
    assert doc["scenario"] == "guided_process at its default config, n_grid set"
    assert [r["n_grid"] for r in doc["runs"]] == [r["n_grid"] for r in doc["parent"]["runs"]] == sizes
    assert list(doc["summary"]) == list(doc["parent"]["summary"]) == ["128", "256", "512"]
    assert doc["summary"]["512"]["wall_s"]["median"] == 0.256
    assert doc["parent"]["summary"]["512"]["wall_s"]["median"] == 0.512


def test_scaling_parent_outside_git_fails_before_any_run(scaling, monkeypatch, outside_git):
    runs = []
    monkeypatch.setattr(scaling, "run_once", lambda config, root: runs.append(root))
    with pytest.raises(SystemExit, match="not a git repository"):
        scaling.main(["--pr", "9", "--series", "process_free", "--parent", outside_git[0]])
    assert runs == []


def test_scaling_free_gaussian_series_grows_the_frame_count(scaling, bench_pairs, monkeypatch, tmp_path):
    assert scaling.plan(2, "free_gaussian") == [1, 2, 4, 1, 2, 4]
    calls = []

    def fake_run(cmd, env, **kwargs):
        side = "parent" if env["PYTHONPATH"] == str(tmp_path / "p" / "src") else "change"
        T = int(cmd[3].removeprefix("scenario = free_gaussian\nT = ").rstrip("\n"))
        calls.append((T, side))
        run = {"wall_s": T / (40 if side == "change" else 25), "peak_rss_mb": 45.0, "passed": True, "numpy": "2.4"}
        return types.SimpleNamespace(stdout=json.dumps(run))

    monkeypatch.setattr(scaling.subprocess, "run", fake_run)
    monkeypatch.setattr(scaling, "describe", lambda checkout: "abc1234: parent")
    monkeypatch.chdir(tmp_path)
    assert scaling.main(["--pr", "9", "--series", "free_gaussian", "--parent", str(tmp_path / "p")]) == 0
    sizes = scaling.plan(scaling.RUNS, "free_gaussian")
    firsts = [first for _, first in bench_pairs.plan(len(sizes), 9)]
    assert calls == [
        (T, side) for T, first in zip(sizes, firsts) for side in (first, "change" if first == "parent" else "parent")
    ]
    doc = json.loads((tmp_path / "BENCH_pr9_scaling.json").read_text())
    assert doc["scenario"] == "free_gaussian at its default config, T set"
    assert [r["T"] for r in doc["runs"]] == [r["T"] for r in doc["parent"]["runs"]] == sizes
    assert list(doc["summary"]) == list(doc["parent"]["summary"]) == ["1", "2", "4"]
    assert doc["summary"]["4"]["wall_s"]["median"] == 0.1
    assert doc["parent"]["summary"]["4"]["wall_s"]["median"] == 0.16


def test_output_digests_write_records_the_environment(monkeypatch, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
        spec.loader.exec_module(module)
    golden = tmp_path / "data" / "digests.txt"
    monkeypatch.setattr(module, "GOLDEN", str(golden))
    listing = ["0:a.csv 11", "1:b.json 22"]
    monkeypatch.setattr(module, "digest_lines", lambda keep: (listing, []))
    assert module.main(["--write"]) == 0
    header, *lines = golden.read_text().splitlines()
    assert header == module.environment() and header.startswith(f"# numpy {np.__version__}, machine ")
    assert lines == listing and capsys.readouterr().out == ""
    # a failed scenario check writes no file and exits 1
    golden.unlink()
    monkeypatch.setattr(module, "digest_lines", lambda keep: (listing, ["FAIL 1:x:y (detail)"]))
    assert module.main(["--write"]) == 1 and not golden.exists()
    assert capsys.readouterr().err == "FAIL 1:x:y (detail)\n"
    assert module.main([]) == 1 and capsys.readouterr().out == "0:a.csv 11\n1:b.json 22\n"
