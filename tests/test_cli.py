"""Exit codes, output formats, and determinism of the command-line front end."""

import json
import subprocess
import sys
import time
import types

import pytest

import qblocks.cli as cli
import qblocks.sampling as sampling
from qblocks.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tsv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def test_linkage_worked_example(capsys):
    code, out, _ = run_cli(
        ["linkage", "--n", "2", "--lambda", "3,1", "--w", "2 1",
         "--format", "tsv"],
        capsys,
    )
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 1
    assert rows[0]["passed"] == "true"
    assert rows[0]["offset"] == "1,-1"
    assert rows[0]["offset_multiplicity"] == "1"


def test_mult_table_rank3(capsys):
    code, out, _ = run_cli(
        ["mult", "--n", "3", "--lambda", "5,2,1", "--w", "all",
         "--format", "tsv"],
        capsys,
    )
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 6
    assert all(r["block_projected"] == "2" for r in rows)
    assert all(r["ok"] == "true" for r in rows)


def test_mult_rejects_weak_typicality(capsys):
    code, _, err = run_cli(
        ["mult", "--n", "2", "--lambda", "2,0"], capsys
    )
    assert code == 2
    assert "strongly typical" in err


def test_classify_json_shape(capsys):
    code, out, _ = run_cli(
        ["classify", "--lambda", "1/2,-1/2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["regular"] is True
    assert row["integral"] is False


def test_orbit_rows_sorted(capsys):
    code, out, _ = run_cli(
        ["orbit", "--lambda", "3,1", "--dot", "--format", "tsv"], capsys
    )
    assert code == 0
    assert [r["weight"] for r in tsv_rows(out)] == ["0,4", "3,1"]


def test_flag_default_height(capsys):
    code, out, _ = run_cli(
        ["flag", "--n", "2", "--lambda", "3,1", "--w", "all",
         "--format", "tsv"],
        capsys,
    )
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 2
    assert all(r["match"] == "true" for r in rows)
    assert all(r["height"] == "1" for r in rows)


def test_mismatch_exits_one(capsys, monkeypatch):
    real = cli._mult_row

    def broken(payload):
        row = real(payload)
        row["ok"] = False
        return row

    monkeypatch.setattr(cli, "_mult_row", broken)
    code, _, _ = run_cli(
        ["mult", "--n", "2", "--lambda", "3,1", "--w", "all"], capsys
    )
    assert code == 1


def test_guard_exits_three(capsys):
    code, _, err = run_cli(
        ["orbit", "--lambda", "8,7,6,5,4,3,2,1"], capsys
    )
    assert code == 3
    assert "rank" in err


RANK8 = "8,7,6,5,4,3,2,1"


@pytest.mark.parametrize("command", ["linkage", "mult", "flag"])
@pytest.mark.parametrize("max_rank, lam, w", [
    (None, RANK8, "all"),
    (None, RANK8, "1 2 3 4 5 6 7 8"),
    ("2", "5,2,1", "2 1 3"),
])
def test_rank_guard_refuses_before_work(
    capsys, monkeypatch, command, max_rank, lam, w
):
    # A single --w must be refused as early as a whole S_n sweep: the flag
    # row would otherwise start a rank-8 super-Verma build.
    if max_rank is not None:
        monkeypatch.setenv("QBLOCKS_MAX_RANK", max_rank)
    code, out, err = run_cli([command, "--lambda", lam, "--w", w], capsys)
    assert code == 3
    assert out == ""
    assert "QBLOCKS_MAX_RANK" in err


@pytest.mark.parametrize("command", ["linkage", "mult", "flag"])
def test_rank_guard_refuses_before_sampling(capsys, monkeypatch, command):
    # The rank is known from --n, so a sweep above the guard must not draw
    # a single weight before it exits 3.
    def never(*args, **kwargs):
        raise AssertionError("sample_weights called before the rank guard")

    monkeypatch.setattr(cli, "sample_weights", never)
    code, out, err = run_cli([command, "--n", "9", "--samples", "100000"], capsys)
    assert code == 3
    assert out == ""
    assert "QBLOCKS_MAX_RANK" in err


@pytest.mark.parametrize("argv", [
    ["--n", "9", "--lambda", "3,1"],
    ["--n", "9", "--w", "2 1"],
    ["--lambda", "9,8,7,6,5,4,3,2,1", "--w", "2 1"],
])
def test_rank_mismatch_exits_two_before_guard(capsys, argv):
    code, out, err = run_cli(["linkage"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert "QBLOCKS_MAX_RANK" not in err


@pytest.mark.parametrize("value", ["abc", "3.5", " "])
def test_malformed_max_rank_exits_two_naming_it(capsys, monkeypatch, value):
    monkeypatch.setenv("QBLOCKS_MAX_RANK", value)
    code, out, err = run_cli(["orbit", "--lambda", "3,1"], capsys)
    assert code == 2
    assert out == ""
    assert "QBLOCKS_MAX_RANK" in err and repr(value) in err


def test_bad_weight_exits_two(capsys):
    code, _, err = run_cli(
        ["classify", "--lambda", "1,two"], capsys
    )
    assert code == 2
    assert "error" in err


def test_missing_rank_exits_two(capsys):
    code, _, err = run_cli(["linkage", "--samples", "2"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["linkage", "mult", "flag"])
def test_zero_samples_exits_two(capsys, command):
    # A sweep over no weights checks nothing, so it must not report a pass.
    code, out, err = run_cli([command, "--n", "3", "--samples", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["linkage", "mult", "flag"])
def test_workers_below_one_exits_two(capsys, command, workers):
    code, out, err = run_cli(
        [command, "--n", "3", "--samples", "1", "--workers", workers], capsys
    )
    assert code == 2
    assert out == ""
    assert "--workers" in err


def test_impossible_sample_count_exits_two_at_once(capsys, monkeypatch):
    # -7..7 holds only 84 admissible rank-2 weights: refuse before drawing.
    def never(seed):
        raise AssertionError("sampler drew before refusing")

    monkeypatch.setattr(sampling, "random", types.SimpleNamespace(Random=never))
    t0 = time.perf_counter()
    code, out, err = run_cli(["linkage", "--n", "2", "--samples", "2000"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "84 admissible" in err


def test_rank_contradiction_exits_two(capsys):
    code, _, _ = run_cli(
        ["linkage", "--n", "3", "--lambda", "3,1"], capsys
    )
    assert code == 2


def test_perm_rank_mismatch_exits_two(capsys):
    code, _, _ = run_cli(
        ["linkage", "--lambda", "3,1", "--w", "2 1 3"], capsys
    )
    assert code == 2


def test_json_and_tsv_agree(capsys):
    code, tsv_out, _ = run_cli(
        ["mult", "--n", "3", "--lambda", "5,2,1", "--w", "all",
         "--format", "tsv"],
        capsys,
    )
    assert code == 0
    code, json_out, _ = run_cli(
        ["mult", "--n", "3", "--lambda", "5,2,1", "--w", "all"],
        capsys,
    )
    assert code == 0
    from_tsv = tsv_rows(tsv_out)
    from_json = json.loads(json_out)["rows"]
    assert len(from_tsv) == len(from_json)
    for t, j in zip(from_tsv, from_json):
        assert t["lambda"] == j["lambda"]
        assert t["w"] == j["w"]
        assert int(t["block_projected"]) == j["flag"]["block_projected"]
        assert int(t["k_expected"]) == j["flag"]["k_expected"]
        assert int(t["ind_raw"]) == j["ind_raw"]
        assert int(t["ind_split"]) == j["ind_split"]
        assert (t["ok"] == "true") == j["ok"]
        compact = ";".join(
            f"{e['weight']}:{e['mult']}" for e in j["flag"]["highest_weights"]
        )
        assert t["flag"] == compact


def test_sampled_runs_are_reproducible(capsys):
    args = ["linkage", "--n", "3", "--samples", "3", "--seed", "17"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_worker_pool_output_matches_serial(capsys):
    serial = ["mult", "--n", "3", "--seed", "4", "--w", "all"]
    code1, out1, _ = run_cli(serial, capsys)
    code2, out2, _ = run_cli(serial + ["--workers", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_selftest_small(capsys):
    code, out, _ = run_cli(["selftest", "--max-n", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines[:9])
    assert lines[-1].startswith("OK: 9/9")


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_selftest_small_max_n_exits_two(capsys, max_n):
    # Below n = 2 most criteria would pass after zero checks.
    code, out, err = run_cli(["selftest", "--max-n", max_n], capsys)
    assert code == 2
    assert out == ""
    assert "--max-n" in err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qblocks.cli", "classify", "--lambda", "3,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["strongly_typical"] is True
