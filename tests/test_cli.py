"""Exit codes, output formats, and determinism of the command-line front end."""

import json
import os
import subprocess
import sys
import time
import types
from math import factorial

import pytest

import qblocks._fork as _fork
import qblocks.charring as charring
import qblocks.cli as cli
import qblocks.filtration as filtration
import qblocks.sampling as sampling
from qblocks.cli import main
from qblocks.lattice import Weight
from qblocks.weyl import GuardError, Perm, all_perms


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


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("command", ["linkage", "mult", "flag"])
def test_rank_below_one_exits_two_naming_it(capsys, command, n):
    code, out, err = run_cli([command, "--n", n], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --n must be at least 1, got {n}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        # Fits the stdout buffer, so it is written by the final flush.
        ["classify", "--lambda", "3,1"],
        # About 79 kB, so print itself writes to the pipe.
        ["mult", "--n", "4", "--lambda=7,5,3,1", "--w", "all"],
    ],
)
def test_closed_stdout_exits_141_quietly(argv):
    # The reader is gone before the first write, as when `| head` has
    # already exited: no traceback, and not the verification-failure code.
    # stdout stays block-buffered, as it is by default on a pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qblocks.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PIPE == 141
    assert proc.stderr == ""


def test_cli_import_loads_neither_selftest_nor_dataclasses():
    # Only the selftest command needs the acceptance suite, and no command
    # needs dataclasses; each process would compile them on every start.
    code = (
        "import sys; before = set(sys.modules); import qblocks.cli; "
        "print(sorted({'qblocks.selftest', 'dataclasses', 'inspect'}"
        " & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_serial_sweep_loads_no_process_machinery():
    # Only a run that forks needs pickle and signal; none needs a pool.
    code = (
        "import sys; before = set(sys.modules); import qblocks.cli; "
        "qblocks.cli.main(['linkage', '--lambda', '3,1']); "
        "print(sorted({'pickle', 'signal', 'concurrent.futures', 'multiprocessing'}"
        " & (set(sys.modules) - before)), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stderr.strip() == "[]"


# Exact bytes of the three sweep commands at n = 2.  The tests above check
# structure; these pin key order, indentation, cell formats and headers.

LINKAGE_TSV_N2 = """\
lambda\tw\tintersection_plain\tintersection_dot\toffset\toffset_multiplicity\tpassed
3,1\t1 2\t3,1\t3,1\t0,0\t1\ttrue
3,1\t2 1\t1,3\t0,4\t1,-1\t1\ttrue
"""

MULT_JSON_N2 = """\
{
  "command": "mult",
  "n": 2,
  "lambdas": [
    "3,1"
  ],
  "rows": [
    {
      "lambda": "3,1",
      "w": "2 1",
      "flag": {
        "highest_weights": [
          {
            "weight": "0,4",
            "mult": 1
          },
          {
            "weight": "1,3",
            "mult": 1
          }
        ],
        "block_projected": 1,
        "k_expected": 1
      },
      "ind_raw": 2,
      "ind_split": 1,
      "ok": true
    }
  ],
  "passed": true
}
"""


FLAG_JSON_N2 = """\
{
  "command": "flag",
  "n": 2,
  "height": 1,
  "lambdas": [
    "3,1"
  ],
  "rows": [
    {
      "lambda": "3,1",
      "w": "1 2",
      "height": 1,
      "extracted": [
        {
          "weight": "2,2",
          "mult": 1
        },
        {
          "weight": "3,1",
          "mult": 1
        }
      ],
      "direct": [
        {
          "weight": "2,2",
          "mult": 1
        },
        {
          "weight": "3,1",
          "mult": 1
        }
      ],
      "match": true
    },
    {
      "lambda": "3,1",
      "w": "2 1",
      "height": 1,
      "extracted": [
        {
          "weight": "0,4",
          "mult": 1
        },
        {
          "weight": "1,3",
          "mult": 1
        }
      ],
      "direct": [
        {
          "weight": "0,4",
          "mult": 1
        },
        {
          "weight": "1,3",
          "mult": 1
        }
      ],
      "match": true
    }
  ],
  "passed": true
}
"""


@pytest.mark.parametrize("argv, expected", [
    (["linkage", "--lambda", "3,1", "--w", "all", "--format", "tsv"], LINKAGE_TSV_N2),
    (["mult", "--lambda", "3,1", "--w", "2 1"], MULT_JSON_N2),
    (["flag", "--lambda", "3,1", "--w", "all"], FLAG_JSON_N2),
])
def test_sweep_output_bytes(capsys, argv, expected):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv, fits", [
    (["--lambda", "3,1", "--w", "1 2", "--height", "1000000000000"], "658,007"),
    (["--n", "7", "--lambda=13,9,6,4,2,-7,-11", "--w", "2 4 3 1 6 5 7"], "24"),
])
def test_flag_region_guard_exits_three(capsys, argv, fits):
    t0 = time.perf_counter()
    code, out, err = run_cli(["flag"] + argv, capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert f"--height {fits} or less" in err


def test_flag_region_guard_refuses_before_sampling(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sample_weights called before the region guard")

    monkeypatch.setattr(cli, "sample_weights", never)
    code, out, err = run_cli(["flag", "--n", "7", "--samples", "100000"], capsys)
    assert code == 3
    assert out == ""
    assert "--height 24 or less" in err


@pytest.mark.parametrize("n, fits", [(2, 658007), (3, 1145), (6, 35), (7, 24)])
def test_flag_height_guard_boundary(n, fits):
    # n = 6 at full height, 35, is exactly the cap, so it still runs.
    assert cli._flag_height(n, fits) == fits
    with pytest.raises(GuardError, match=f"--height {fits:,} or less"):
        cli._flag_height(n, fits + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("height", [0, 1, 4, 9])
def test_flag_region_counts_offset_table_points(monkeypatch, n, height):
    # With no room left every region is refused, and the refusal names the
    # guard's count, which must be the size of the table flag would build.
    monkeypatch.setattr(cli, "_MAX_FLAG_REGION", 0)
    with pytest.raises(GuardError) as refused:
        cli._flag_height(n, height)
    points = len(charring._offset_table(n, height, True))
    assert f"has {points:,} points" in str(refused.value)


def _refused_at_once(capsys, monkeypatch, argv, fits):
    def never(*args, **kwargs):
        raise AssertionError("sample_weights called before the work guard")

    monkeypatch.setattr(cli, "sample_weights", never)
    t0 = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - t0 < 2.0
    assert code == 3
    assert out == ""
    assert f"use {fits} rows or fewer" in err


@pytest.mark.parametrize("argv, fits", [
    (["--n", "7", "--w", "all"], "57"),
    (["--n", "7", "--lambda=13,9,6,4,2,-7,-11", "--w", "all"], "57"),
    # A --w all sweep runs in whole weights of 120 rows, so 60 fit: 7,200 rows.
    (["--n", "5", "--samples", "61"], "7,200"),
])
def test_mult_work_guard_exits_three(capsys, monkeypatch, argv, fits):
    _refused_at_once(capsys, monkeypatch, ["mult"] + argv, fits)


@pytest.mark.parametrize("argv, fits", [
    (["linkage", "--n", "7", "--w", "all", "--samples", "1000"], "5,040"),
    (["linkage", "--n", "7", "--w", "all", "--samples", "2"], "5,040"),
    (["linkage", "--n", "6", "--w", "all", "--samples", "50"], "30,960"),
    (["flag", "--n", "6", "--w", "all", "--samples", "40"], "720"),
    # 13,675 of P(7)'s 36,961 entries lie at height 24 or below.
    (["flag", "--n", "7", "--lambda=13,9,6,4,2,-7,-11", "--w", "all",
      "--height", "24"], "154"),
    (["mult", "--n", "7", "--w", "all"], "57"),
    # Each weight's keying counts: one w at n = 7 fits 45 weights, not 5,040.
    (["linkage", "--n", "7", "--w", "1 2 3 4 5 6 7", "--samples", "5040"], "45"),
    # Full-height flag rows at n = 5, in whole weights of 120 rows.
    (["flag", "--n", "5", "--w", "all", "--samples", "61"], "7,080"),
])
def test_work_guard_exits_three(capsys, monkeypatch, argv, fits):
    _refused_at_once(capsys, monkeypatch, argv, fits)


def test_work_caps_are_the_contract_sweep_estimates():
    # Each cap is the largest one-weight --w all sweep the CLI promises:
    # n = 6 for mult and flag, n = 7 for linkage.  A flag row also costs
    # _FLAG_ROW_COST beyond its entries, and keying a linkage weight
    # _LINKAGE_KEYING_COST rows.
    p6 = len(charring.subset_sum_P(6))
    assert cli._WORK_CAPS == {
        "mult": factorial(6) * p6,
        "flag": factorial(6) * (p6 + cli._FLAG_ROW_COST),
        "linkage": factorial(7) * (factorial(7) + cli._LINKAGE_KEYING_COST),
    }


@pytest.mark.parametrize("argv", [
    ["linkage", "--n", "7", "--w", "all"],
    ["linkage", "--n", "6", "--w", "all", "--samples", "43"],
    ["flag", "--n", "6", "--w", "all"],
])
def test_contract_sweeps_resolve_at_their_caps(argv):
    # One weight over all w runs exactly at its cap, and 43 weights over all
    # w are the most linkage admits at n = 6; one weight more is refused.
    command = argv[0]
    n, fixed, lams, perms = cli._resolve_sweep(cli.build_parser().parse_args(argv))
    rows = len(lams) * len(perms)
    if command == "linkage":
        per_weight = (len(perms) + cli._LINKAGE_KEYING_COST) * factorial(n)
    else:
        per_weight = len(perms) * (len(charring.subset_sum_P(n)) + cli._FLAG_ROW_COST)
    cap = cli._WORK_CAPS[command]
    assert len(lams) * per_weight <= cap < (len(lams) + 1) * per_weight
    assert len(lams) > 1 or per_weight == cap
    with pytest.raises(GuardError, match=f"use {rows:,} rows or fewer"):
        cli._check_rows(command, n, len(lams) + 1, len(perms), fixed.get("height"))


def test_linkage_guard_charges_each_weights_keying():
    # One w at n = 7: 45 weights fit the cap, and the refusal of 46 names
    # their keying, _LINKAGE_KEYING_COST rows of 5,040 orbit points each.
    cli._check_rows("linkage", 7, 45, 1)
    keying = cli._LINKAGE_KEYING_COST * 5_040
    with pytest.raises(
        GuardError, match=f"and key 46 weights at {keying:,} each, .* use 45 rows"
    ):
        cli._check_rows("linkage", 7, 46, 1)
    # Where one weight over all w is over the cap (n = 8, allowed only by
    # QBLOCKS_MAX_RANK), the message names the one-w count that fits.
    with pytest.raises(GuardError, match="use 5 rows or fewer"):
        cli._check_rows("linkage", 8, 1, factorial(8))


def test_mult_work_guard_admits_the_n6_table():
    args = cli.build_parser().parse_args(["mult", "--n", "6", "--w", "all"])
    n, _, lams, perms = cli._resolve_sweep(args)
    assert n == 6 and len(lams) * len(perms) * 2_932 == cli._WORK_CAPS["mult"]
    with pytest.raises(GuardError, match="use 720 rows or fewer"):
        cli._check_rows("mult", 6, 721, 1)


def test_mult_work_guard_boundary(capsys, monkeypatch):
    # At n = 3 a mult row does |supp P(3)| = 7 units of work, a full-height
    # flag row those 7 plus _FLAG_ROW_COST, and a linkage row 3! = 6, with
    # _LINKAGE_KEYING_COST rows' work more per weight.  A cap that fits one
    # weight over all w admits those 6 rows and names 6 as the largest row
    # count over all w.  With one w, mult and flag fit 6 weights and linkage
    # 1, since each weight's keying outweighs its row.
    keying = cli._LINKAGE_KEYING_COST * 6
    for command, work, per_weight, unit in (
        ("mult", 7, 0, "flag entries"),
        ("flag", 7 + cli._FLAG_ROW_COST, 0, "flag entries"),
        ("linkage", 6, keying, "orbit points"),
    ):
        cap = 6 * work + per_weight
        one_w = cap // (work + per_weight)
        assert one_w == (1 if command == "linkage" else 6)
        monkeypatch.setitem(cli._WORK_CAPS, command, cap)
        code, out, err = run_cli([command, "--n", "3", "--w", "all"], capsys)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["rows"]) == 6
        code, out, err = run_cli(
            [command, "--n", "3", "--w", "2 1 3", "--samples", str(one_w)], capsys
        )
        assert (code, err) == (0, "")
        code, out, err = run_cli([command, "--n", "3", "--samples", "2"], capsys)
        assert (code, out) == (3, "")
        assert f"12 rows of {work} {unit}" in err and "use 6 rows or fewer" in err
        code, out, err = run_cli(
            [command, "--n", "3", "--w", "2 1 3", "--samples", str(one_w + 1)], capsys
        )
        assert (code, out) == (3, "")
        assert f"use {one_w} rows or fewer" in err


def test_mult_work_guard_compares_rows_before_building_P(capsys, monkeypatch):
    def never(n):
        raise AssertionError("subset_sum_P built for rows that cannot fit")

    monkeypatch.setattr(cli, "subset_sum_P", never)
    monkeypatch.setitem(cli._WORK_CAPS, "mult", 5)
    code, out, err = run_cli(["mult", "--n", "3", "--w", "all"], capsys)
    assert (code, out) == (3, "")
    assert "asks for 6 rows, more than the 5 flag entries" in err


def test_negative_height_exits_two(capsys):
    code, out, err = run_cli(
        ["flag", "--lambda", "3,1", "--w", "1 2", "--height", "-1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "--height" in err


def test_flag_refuses_a_bad_lambda_before_building_a_table(capsys, monkeypatch):
    # 13,9,6,2,-2,-10 is not strongly typical; the 658,008-point table at
    # n = 6 must not be built before lambda is checked.
    def never(*args, **kwargs):
        raise AssertionError("super_verma_char called before lambda was checked")

    monkeypatch.setattr(filtration, "super_verma_char", never)
    code, out, err = run_cli(
        ["flag", "--n", "6", "--lambda=13,9,6,2,-2,-10", "--w", "4 1 2 3 6 5"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: restriction_flag requires an integral dominant regular strongly "
        "typical weight; 13,9,6,2,-2,-10 is not strongly typical\n"
    )


def _negated_quotient_after(monkeypatch, calls):
    """Negate the top coefficient of every quotient filtration hands out
    after its first `calls` ones, which stay true; return the list of calls
    counted, which a test clears to start the count again."""
    orig = filtration._table_quotient
    made = []

    def negated(n, bound, super_table, super_blocks):
        q = dict(orig(n, bound, super_table, super_blocks))
        made.append(n)
        if len(made) > calls:
            q[max(q)] *= -1
        return q

    monkeypatch.setattr(filtration, "_table_quotient", negated)
    return made


def test_failed_division_exits_one(capsys, monkeypatch):
    # flag divides only tables it packs itself: a division that fails is a
    # verification failure, not a usage error.
    _negated_quotient_after(monkeypatch, 0)
    code, out, err = run_cli(
        ["flag", "--n", "3", "--lambda=5,2,-1", "--w", "2 1 3"], capsys
    )
    assert (code, out, err) == (1, "", "error: negative coefficient at 0,5,1\n")


def test_failed_division_in_a_child_exits_one_as_serial(capsys, monkeypatch, forks):
    # Row 0, which this process builds before it forks, divides truly; every
    # later division fails, row 1's in the child first.
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    argv = ["flag", "--n", "3", "--lambda=5,2,-1", "--w", "all"]
    made = _negated_quotient_after(monkeypatch, 1)
    serial = run_cli(argv, capsys)
    assert forks == []
    assert serial[:2] == (1, "")
    assert serial[2].startswith("error: negative coefficient at ")
    del made[:]
    assert run_cli(argv + ["--workers", "2"], capsys) == serial
    assert len(forks) == 1


def test_flag_lists_one_multiset_when_the_routes_agree(capsys, monkeypatch):
    lam, w = Weight.parse("5,2,1"), Perm.parse("2 1 3")
    row = cli._flag_row((lam, w, 2))
    assert row["match"] and row["direct"] is row["extracted"]
    # Doubling the quotient at height 2, below n = 3's full height, keeps
    # extraction from raising: the routes differ, and each lists its own
    # entries.
    orig = filtration._table_quotient
    monkeypatch.setattr(
        filtration, "_table_quotient",
        lambda *key: {k: 2 * c for k, c in orig(*key).items()},
    )
    code, out, err = run_cli(
        ["flag", "--lambda", "5,2,1", "--w", "2 1 3", "--height", "2"], capsys
    )
    doc = json.loads(out)
    (red,) = doc["rows"]
    assert (code, err, doc["passed"], red["match"]) == (1, "", False, False)
    assert red["direct"] == row["direct"]
    assert red["extracted"] == [
        {"weight": e["weight"], "mult": 2 * e["mult"]} for e in row["direct"]
    ]


def test_flag_guard_charges_a_row_its_entries(capsys):
    # At height 0 a flag row builds one entry, so two weights over all w at
    # n = 6 fit under the cap that the full-height sweep of one fills.
    code, out, err = run_cli(
        ["flag", "--n", "6", "--w", "all", "--height", "0", "--samples", "2"], capsys
    )
    assert (code, err) == (0, "")
    assert len(json.loads(out)["rows"]) == 1_440


def test_flag_guard_compares_rows_before_building_P(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("P built or weights sampled for rows that cannot fit")

    monkeypatch.setattr(cli, "_subset_sums_by_height", never)
    monkeypatch.setattr(cli, "sample_weights", never)
    code, out, err = run_cli(
        ["flag", "--n", "6", "--w", "all", "--height", "0", "--samples", "1000"],
        capsys,
    )
    assert (code, out) == (3, "")
    least = 1 + cli._FLAG_ROW_COST
    assert err == (
        f"error: flag at n = 6 asks for 720,000 rows, more than the "
        f"{cli._WORK_CAPS['flag']:,} flag entries it may build, at least {least} a row\n"
    )


@pytest.mark.parametrize("text", ["a:b", "1:", "3", "1:2:3"])
def test_bad_sample_range_exits_two_naming_it(capsys, text):
    code, out, err = run_cli(
        ["linkage", "--n", "3", "--sample-range", text], capsys
    )
    assert code == 2
    assert out == ""
    assert "--sample-range" in err and repr(text) in err


def test_worker_pool_sized_by_rows(capsys, forks):
    # One row needs no fork, whatever --workers asks for.
    serial = ["mult", "--lambda", "3,1", "--w", "2 1"]
    code1, out1, _ = run_cli(serial, capsys)
    code2, out2, _ = run_cli(serial + ["--workers", "6"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert forks == []


def test_worker_pool_sized_by_cores(capsys, monkeypatch, forks):
    # --workers counts this process: N processes take N - 1 forks.
    serial = ["mult", "--lambda", "5,2,1", "--w", "all"]
    code1, out1, _ = run_cli(serial, capsys)
    assert forks == []
    for cpus, workers, made in [(3, "6", 2), (3, "2", 1), (1, "6", 0)]:
        monkeypatch.setattr(_fork, "_usable_cpus", lambda cpus=cpus: cpus)
        del forks[:]
        code2, out2, _ = run_cli(serial + ["--workers", workers], capsys)
        assert (code2, out2) == (0, out1)
        assert len(forks) == made


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform"
)
def test_worker_pool_capped_by_usable_cpus(capsys, monkeypatch, forks):
    # As under taskset -c 0: the machine has CPUs this process may not use.
    serial = ["mult", "--lambda", "5,2,1", "--w", "all"]
    code1, out1, _ = run_cli(serial, capsys)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code2, out2, _ = run_cli(serial + ["--workers", "6"], capsys)
    assert code1 == code2 == 0
    assert out2 == out1
    assert forks == []


def test_row_raising_in_a_child_reports_as_serial(capsys, monkeypatch, forks):
    # Rows 3 (a child's) and 4 (this process's) raise at --workers 2: the
    # lowest one's error is the serial run's.
    perms = list(all_perms(3))
    orig = cli._mult_row

    def raising(payload):
        i = perms.index(payload[1])
        if i in (3, 4):
            raise ValueError(f"row {i} broke")
        return orig(payload)

    monkeypatch.setattr(cli, "_mult_row", raising)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    argv = ["mult", "--lambda", "5,2,1", "--w", "all"]
    serial = run_cli(argv, capsys)
    assert forks == []
    assert serial == (2, "", "error: row 3 broke\n")
    assert run_cli(argv + ["--workers", "2"], capsys) == serial
    assert len(forks) == 1
