"""Command-line behaviour, run in-process through main()."""

import csv as csv_module
import os
import subprocess
import sys

import pytest

from conftest import naive_path_length

import collatzpath
from collatzpath import (
    CatalogEntry,
    advance,
    checkpoint_read,
    checkpoint_write,
    initial_state,
    mersenne_number,
    mersenne_set,
    generate_set_A,
    parse_expression,
    path_length,
    ratio_stats,
)
from collatzpath.cli import _UsageError, main, parse_rank_range
from collatzpath.errors import CollatzPathError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(out, delimiter=","):
    return list(csv_module.reader(out.splitlines(), delimiter=delimiter))


def test_pathlen_mersenne_expression(capsys):
    code, out, err = run_cli(capsys, "pathlen", "M7")
    assert code == 0 and err == ""
    header, row = rows(out)
    assert header == ["expr", "n", "d", "odd_steps", "even_steps", "peak_bit_length"]
    d, odd, even, peak = naive_path_length(127)
    assert row == ["M7", "7", str(d), str(odd), str(even), str(peak)]
    assert d == 46


def test_pathlen_trivial_start(capsys):
    code, out, _ = run_cli(capsys, "pathlen", "1")
    assert code == 0
    assert rows(out)[1] == ["1", "", "0", "0", "0", "1"]


def test_pathlen_rank_expression(capsys):
    code, out, _ = run_cli(capsys, "pathlen", "Mp4")
    assert code == 0
    row = rows(out)[1]
    assert row[0] == "Mp4" and row[1] == "7" and row[2] == "46"


def test_pathlen_decimal_underscores(capsys):
    code, out, _ = run_cli(capsys, "pathlen", "1_000")
    assert code == 0
    row = rows(out)[1]
    assert row[1] == "" and int(row[2]) == naive_path_length(1000)[0]


def test_pathlen_trace_column(capsys):
    code, out, _ = run_cli(capsys, "pathlen", "7", "--trace-limit", "5")
    assert code == 0
    header, row = rows(out)
    assert header[-1] == "trace"
    assert row[-1] == "7 22 11 34 17"

    code, out, _ = run_cli(capsys, "pathlen", "7", "--trace-limit", "0")
    assert code == 0
    assert rows(out)[1][-1] == ""


def test_tsv_format(capsys):
    code, out, _ = run_cli(capsys, "pathlen", "M7", "--format", "tsv")
    assert code == 0
    header, row = rows(out, delimiter="\t")
    assert header[0] == "expr" and row[0] == "M7"
    assert "\t" in out.splitlines()[0]


def test_catalog_csv(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--csv")
    assert code == 0
    table = rows(out)
    assert len(table) == 48
    assert table[0] == ["rank", "exponent", "reference_d", "reference_ratio"]
    assert table[1] == ["1", "2", "7", "3.5"]
    assert table[45][:3] == ["45", "37156667", "499902411"]
    assert ",371566673," not in out


def test_catalog_aligned_text(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 48
    assert lines[0].split() == ["rank", "exponent", "reference_d", "reference_ratio"]
    assert lines[1].split() == ["1", "2", "7", "3.5"]


def test_parse_rank_range():
    assert parse_rank_range("1..17") == (1, 17)
    assert parse_rank_range("32..47") == (32, 47)
    assert parse_rank_range("5..5") == (5, 5)
    assert parse_rank_range("1_0..12") == (10, 12)
    for bad in ("", "5", "5..", "..7", "7..5", "0..3", "1..48", "a..b", "1-17",
                "²..3", "١..٣", "1..٣"):
        with pytest.raises(_UsageError):
            parse_rank_range(bad)


@pytest.mark.parametrize("ranks", ["0..3", "1..48", "7..5"])
def test_verify_rank_range_outside_the_catalog(capsys, ranks):
    code, out, err = run_cli(capsys, "verify", "--ranks", ranks, "--jobs", "1")
    assert code == 2 and out == ""
    low, high = ranks.split("..")
    assert err == (
        f"collatzpath: usage error: ranks must satisfy 1 <= from <= to <= 47, got {low}..{high}\n"
    )


def test_verify_fast_ranks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ranks", "1..12", "--jobs", "1")
    assert code == 0
    table = rows(out)
    assert table[0] == ["rank", "exponent", "reference_d", "computed_d", "match"]
    assert len(table) == 13
    for row in table[1:]:
        assert row[2] == row[3] and row[4] == "true"


def test_verify_flags_a_mismatch(capsys, monkeypatch):
    planted = CatalogEntry(rank=1, exponent=2, reference_d=999, reference_ratio=3.5)
    monkeypatch.setattr("collatzpath.cli.catalog_entries", lambda low, high: (planted,))
    code, out, _ = run_cli(capsys, "verify", "--ranks", "1..1", "--jobs", "1")
    assert code == 1
    row = rows(out)[1]
    assert row == ["1", "2", "999", "7", "false"]


def test_verify_parallel_matches_serial(capsys):
    parallel = run_cli(capsys, "verify", "--ranks", "1..14", "--jobs", "2")
    serial = run_cli(capsys, "verify", "--ranks", "1..14", "--jobs", "1")
    assert parallel == serial
    code, out, _ = serial
    assert code == 0 and len(rows(out)) == 15


# Commands that must print the same bytes and exit alike whatever --jobs
# is; the last trips the guard at rank 2 and exits 3.
JOBS_INVARIANT = {
    "verify": ("verify", "--ranks", "1..14"),
    "scan": ("scan", "--center", "127", "--each-side", "3", "--stride", "1", "--primes-only"),
    "stats": ("stats", "--set", "A", "--from-rank", "16", "--to-rank", "17", "--recompute"),
    "guard": ("verify", "--ranks", "1..14", "--cycle-guard", "10"),
}


@pytest.mark.parametrize("argv", JOBS_INVARIANT.values(), ids=JOBS_INVARIANT.keys())
def test_jobs_change_no_output(capsys, argv):
    serial = run_cli(capsys, *argv, "--jobs", "1")
    # stats recomputes two rows; no case asks for more processes than rows.
    for jobs in ("2",) if argv[0] == "stats" else ("2", "4"):
        assert run_cli(capsys, *argv, "--jobs", jobs) == serial


def test_a_guard_trip_crosses_the_fan_out_intact(capsys):
    code, out, err = run_cli(capsys, *JOBS_INVARIANT["guard"], "--jobs", "2")
    assert code == 3
    assert err == "collatzpath: error: step count exceeded the cycle guard (10) iterating from 7\n"
    assert rows(out) == [["rank", "exponent", "reference_d", "computed_d", "match"],
                         ["1", "2", "7", "7", "true"]]


def test_scan_integer_window(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--center", "16", "--each-side", "1", "--stride", "1", "--jobs", "1"
    )
    assert code == 0
    table = rows(out)
    assert table[0] == ["n", "is_prime", "d", "ratio"]
    assert [r[0] for r in table[1:]] == ["15", "16", "17"]
    assert [r[1] for r in table[1:]] == ["false", "false", "true"]
    for r in table[1:]:
        assert int(r[2]) == naive_path_length(2 ** int(r[0]) - 1)[0]


def test_scan_primes_parallel_matches_serial(capsys):
    code, out_parallel, _ = run_cli(
        capsys, "scan", "--center", "127", "--each-side", "2", "--stride", "1",
        "--primes-only", "--jobs", "2",
    )
    assert code == 0
    code, out_serial, _ = run_cli(
        capsys, "scan", "--center", "127", "--each-side", "2", "--stride", "1",
        "--primes-only", "--jobs", "1",
    )
    assert code == 0
    assert out_parallel == out_serial
    table = rows(out_parallel)
    assert [r[0] for r in table[1:]] == ["109", "113", "127", "131", "137"]
    assert table[3][2] == "1660"


def test_stats_reference_rows(capsys):
    code, out, _ = run_cli(capsys, "stats", "--set", "mersenne")
    assert code == 0
    label, count, mean, variance = rows(out)[1]
    assert label == "mersenne" and count == "13"
    assert abs(float(mean) - 13.4473) < 5e-5
    assert abs(float(variance) - 0.0002977) < 5e-8

    code, out, _ = run_cli(capsys, "stats", "--set", "B")
    row = rows(out)[1]
    assert abs(float(row[2]) - 13.4485) < 5e-5
    assert abs(float(row[3]) - 0.0017853) < 5e-8

    code, out, _ = run_cli(capsys, "stats", "--set", "C")
    row = rows(out)[1]
    assert abs(float(row[2]) - 13.4618) < 5e-5
    assert abs(float(row[3]) - 0.00132591) < 5e-8


def test_stats_fixture_sets_take_no_rank_range(capsys):
    code, _, err = run_cli(capsys, "stats", "--set", "C", "--from-rank", "3")
    assert code == 2
    assert "fixture" in err


def test_stats_rank_range_out_of_catalog(capsys):
    code, _, err = run_cli(
        capsys, "stats", "--set", "mersenne", "--from-rank", "40", "--to-rank", "50"
    )
    assert code == 2
    assert "usage error" in err


def test_stats_recompute_mersenne_matches_reference(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--set", "mersenne", "--from-rank", "13", "--to-rank", "17",
        "--recompute", "--jobs", "2",
    )
    assert code == 0
    row = rows(out)[1]
    pairs = [(n, path_length(mersenne_number(n)).d) for n in mersenne_set(13, 17).indices]
    expected = ratio_stats(pairs)
    assert row[1] == "5"
    assert float(row[2]) == expected.mean
    assert float(row[3]) == expected.sample_variance


def test_stats_recompute_set_a(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--set", "A", "--from-rank", "16", "--to-rank", "17",
        "--recompute", "--jobs", "1",
    )
    assert code == 0
    row = rows(out)[1]
    exponents = generate_set_A(mersenne_set(16, 17)).indices
    expected = ratio_stats([(n, path_length(mersenne_number(n)).d) for n in exponents])
    assert row[0] == "A" and row[1] == "2"
    assert float(row[2]) == expected.mean
    assert float(row[3]) == expected.sample_variance


def test_stats_recompute_warns_when_slow(capsys, monkeypatch):
    monkeypatch.setattr("collatzpath.cli._SLOW_EXPONENT", 100)
    code, out, err = run_cli(
        capsys, "stats", "--set", "mersenne", "--from-rank", "13", "--to-rank", "14",
        "--recompute", "--jobs", "1",
    )
    assert code == 0
    assert "warning" in err and "hours" in err
    assert rows(out)[1][1] == "2"


@pytest.mark.parametrize(
    "bounds", [("--from-rank", "31", "--to-rank", "31", "--recompute"),
               ("--from-rank", "1", "--to-rank", "1")],
    ids=["recompute", "reference"],
)
def test_stats_refuses_a_one_index_row_before_any_work(capsys, monkeypatch, bounds):
    def no_work(*args):
        pytest.fail("a one-index row must be refused before any lookup or recompute")

    monkeypatch.setattr("collatzpath.cli.reference_d", no_work)
    monkeypatch.setattr("collatzpath.cli.mersenne_path_lengths", no_work)
    code, out, err = run_cli(capsys, "stats", "--set", "mersenne", *bounds, "--jobs", "1")
    assert (code, out) == (2, "")
    assert err.startswith("collatzpath: usage error: statistics need at least 2 indices")


def test_fit_row(capsys):
    code, out, _ = run_cli(capsys, "fit")
    assert code == 0
    header, row = rows(out)
    assert header == ["intercept", "slope", "rms_residual"]
    assert abs(float(row[0]) - 0.92757) < 1e-5
    assert abs(float(row[1]) - 0.55715) < 1e-5


def test_heuristic_row(capsys):
    code, out, _ = run_cli(capsys, "heuristic", "--n", "216091")
    assert code == 0
    header, row = rows(out)
    assert header == ["n", "estimate"]
    assert row[0] == "216091"
    assert abs(float(row[1]) - 2906179) / 2906179 < 1e-3


def test_lucas_lehmer_rows(capsys):
    code, out, _ = run_cli(capsys, "lucas-lehmer", "13")
    assert code == 0
    assert rows(out)[1] == ["13", "true"]

    code, out, _ = run_cli(capsys, "lucas-lehmer", "11")
    assert code == 0
    assert rows(out)[1] == ["11", "false"]


def test_lucas_lehmer_domain_failure_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "lucas-lehmer", "9")
    assert code == 3
    assert out == ""
    assert "error" in err


def test_expression_parse_failure(capsys):
    code, out, err = run_cli(capsys, "pathlen", "M-3")
    assert code == 2
    assert out == ""
    assert "parse error" in err and "offset 1" in err


def test_usage_failures(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "scan")[0] == 2
    assert run_cli(capsys, "heuristic", "--n", "0")[0] == 2
    assert run_cli(capsys, "verify", "--ranks", "1..99")[0] == 2


# Each row fails with its exit code and one error line, the last on
# stderr; argparse prints its usage lines above it.
ONE_LINE_FAILURES = {
    "ranks-superscript": (
        ("verify", "--ranks", "²..3"), 2,
        "collatzpath: usage error: --ranks expects A..B with decimal ranks, got '²..3'",
    ),
    "ranks-arabic-indic": (
        ("verify", "--ranks", "١..٣"), 2,
        "collatzpath: usage error: --ranks expects A..B with decimal ranks, got '١..٣'",
    ),
    "jobs-arabic-indic": (
        ("verify", "--ranks", "1..3", "--jobs", "٢"), 2,
        "collatzpath verify: error: argument --jobs: invalid int value: '٢'",
    ),
    "jobs-space": (
        ("verify", "--ranks", "1..3", "--jobs", " 2"), 2,
        "collatzpath verify: error: argument --jobs: invalid int value: ' 2'",
    ),
    "jobs-plus": (
        ("verify", "--ranks", "1..3", "--jobs", "+2"), 2,
        "collatzpath verify: error: argument --jobs: invalid int value: '+2'",
    ),
    "heuristic-arabic-indic": (
        ("heuristic", "--n", "١٠"), 2,
        "collatzpath heuristic: error: argument --n: invalid int value: '١٠'",
    ),
    "lucas-lehmer-arabic-indic": (
        ("lucas-lehmer", "٧"), 2,
        "collatzpath lucas-lehmer: error: argument p: invalid int value: '٧'",
    ),
    "lucas-lehmer-negative": (
        ("lucas-lehmer", "--", "-3"), 2,
        "collatzpath lucas-lehmer: error: argument p: invalid int value: '-3'",
    ),
    "from-rank-zero": (
        ("stats", "--set", "mersenne", "--from-rank", "0"), 2,
        "collatzpath: usage error: ranks must satisfy 1 <= from <= to <= 47, got 0..38",
    ),
    "mersenne-too-large": (
        ("pathlen", "M" + "1" + "0" * 30), 3,
        "collatzpath: error: n is too large for 2**n - 1 to be an int, "
        "got a 100-bit value 0xc9f2c9cd04674ede...",
    ),
    "power-too-large": (
        ("pathlen", "2^" + "1" + "0" * 30), 3,
        "collatzpath: error: exponent is too large for 2**n to be an int, "
        "got a 100-bit value 0xc9f2c9cd04674ede...",
    ),
    "scan-too-large": (
        ("scan", "--center", "1" + "0" * 30, "--each-side", "1", "--stride", "1", "--jobs", "2"), 3,
        "collatzpath: error: n is too large for 2**n - 1 to be an int, "
        "got a 100-bit value 0xc9f2c9cd04674ede...",
    ),
    "heuristic-too-large": (
        ("heuristic", "--n", "1" + "0" * 400), 3,
        "collatzpath: error: n must fit a float, got a 1329-bit value 0xda763fc8cb9ff9e5...",
    ),
}


@pytest.mark.parametrize("argv, code, line", ONE_LINE_FAILURES.values(),
                         ids=ONE_LINE_FAILURES.keys())
def test_failures_end_in_one_line(capsys, argv, code, line):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert "Traceback" not in err
    assert [text for text in err.splitlines() if "error" in text] == [line]
    assert err.endswith(line + "\n")


def test_an_interrupt_is_one_line_and_exit_130(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("collatzpath.cli.path_length", interrupted)
    assert run_cli(capsys, "pathlen", "27") == (130, "", "collatzpath: interrupted\n")


def test_an_interrupted_checkpointed_run_keeps_its_checkpoint(tmp_path, capsys, monkeypatch):
    plain = run_cli(capsys, "pathlen", "M89")
    ckpt = tmp_path / "m89.ckpt"
    argv = ("pathlen", "M89", "--checkpoint", str(ckpt), "--checkpoint-interval", "300")
    calls = []

    def interrupted_second(state, budget, **kwargs):
        calls.append(budget)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return advance(state, budget, **kwargs)

    monkeypatch.setattr("collatzpath.cli.advance", interrupted_second)
    assert run_cli(capsys, *argv) == (130, "", "collatzpath: interrupted\n")
    expr = parse_expression("M89")
    first = advance(initial_state(expr.resolve(), origin=expr), 300)
    assert checkpoint_read(ckpt).to_state() == first
    monkeypatch.undo()
    assert run_cli(capsys, *argv) == plain


def test_cycle_guard_failure(capsys):
    code, _, err = run_cli(capsys, "pathlen", "27", "--cycle-guard", "10")
    assert code == 3
    assert "cycle guard" in err


def run_process(*argv):
    # Run as a real process: the exit status and stderr are what a shell sees.
    package_root = os.path.dirname(os.path.dirname(collatzpath.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    command = "from collatzpath.cli import main_entry; main_entry()"
    return subprocess.run(
        [sys.executable, "-c", command, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cycle_guard_failure_on_a_huge_start():
    done = run_process("pathlen", "M19937", "--cycle-guard", "1000")
    assert done.returncode == 3
    assert "cycle guard" in done.stderr and "19937-bit start" in done.stderr
    assert "Traceback" not in done.stderr


def test_trace_of_a_start_past_the_digit_limit():
    # 2**19937 - 1 has 6002 decimal digits, past str()'s default limit.
    done = run_process("pathlen", "M19937", "--trace-limit", "1")
    assert (done.returncode, done.stderr) == (0, "")
    row = rows(done.stdout)[1]
    assert row[:3] == ["M19937", "19937", "265860"]
    assert len(row[6]) == 6002 and row[6][:6] == "431542" and row[6][-6:] == "041471"


def test_decimal_start_past_the_digit_limit():
    text = "7" * 5001
    done = run_process("pathlen", text)
    assert (done.returncode, done.stderr) == (0, "")
    expected = path_length(parse_expression(text).resolve())
    assert rows(done.stdout)[1] == [
        text, "", str(expected.d), str(expected.odd_steps), str(expected.even_steps),
        str(expected.peak_bit_length),
    ]


def test_unforeseen_failure_is_one_line_and_a_runtime_exit(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("something unforeseen")

    monkeypatch.setattr("collatzpath.cli.path_length", broken)
    code, out, err = run_cli(capsys, "pathlen", "27")
    assert code == 3 and out == ""
    assert err == "collatzpath: error: ValueError: something unforeseen\n"


def test_unresolvable_rank_is_a_runtime_failure(capsys):
    code, _, err = run_cli(capsys, "pathlen", "Mp48")
    assert code == 3
    assert "rank" in err


def test_checkpointed_run_from_scratch(tmp_path, capsys):
    ckpt = tmp_path / "m89.ckpt"
    code, out, _ = run_cli(
        capsys, "pathlen", "M89", "--checkpoint", str(ckpt), "--checkpoint-interval", "300"
    )
    assert code == 0
    assert rows(out)[1][2] == "1454"
    final = checkpoint_read(ckpt).to_state()
    assert final.steps == 1454 and final.current == 1

    # Running again resumes the finished state and reports the same result.
    code, out, _ = run_cli(capsys, "pathlen", "M89", "--checkpoint", str(ckpt))
    assert code == 0
    assert rows(out)[1][2] == "1454"


def test_checkpointed_run_resumes_partial_progress(tmp_path, capsys):
    ckpt = tmp_path / "partial.ckpt"
    expr = parse_expression("M89")
    partial = advance(initial_state(expr.resolve(), origin=expr), 500)
    checkpoint_write(ckpt, partial)

    code, out, _ = run_cli(
        capsys, "pathlen", "M89", "--checkpoint", str(ckpt), "--checkpoint-interval", "200"
    )
    assert code == 0
    row = rows(out)[1]
    assert row[2] == "1454"
    reference = path_length(mersenne_number(89))
    assert row[3] == str(reference.odd_steps) and row[4] == str(reference.even_steps)


def test_checkpoint_refuses_a_different_origin(tmp_path, capsys):
    ckpt = tmp_path / "m89.ckpt"
    expr = parse_expression("M89")
    checkpoint_write(ckpt, advance(initial_state(expr.resolve(), origin=expr), 500))

    code, out, err = run_cli(capsys, "pathlen", "M107", "--checkpoint", str(ckpt))
    assert code == 3
    assert out == ""
    assert "refusing" in err
    # The mismatch must not clobber the existing checkpoint.
    assert checkpoint_read(ckpt).to_state().steps == 500


def test_checkpoint_corruption_is_a_runtime_failure(tmp_path, capsys):
    ckpt = tmp_path / "m89.ckpt"
    expr = parse_expression("M89")
    checkpoint_write(ckpt, advance(initial_state(expr.resolve(), origin=expr), 500))
    data = bytearray(ckpt.read_bytes())
    at = data.index(b"\nsteps=") + len(b"\nsteps=")
    data[at] = ord("9")
    ckpt.write_bytes(bytes(data))

    code, _, err = run_cli(capsys, "pathlen", "M89", "--checkpoint", str(ckpt))
    assert code == 3
    assert "CRC" in err or "crc" in err.lower()


def test_checkpoint_interval_split_is_invisible(tmp_path, capsys):
    ckpt = tmp_path / "m17.ckpt"
    code, out, _ = run_cli(
        capsys, "pathlen", "M17", "--checkpoint", str(ckpt), "--checkpoint-interval", "7"
    )
    assert code == 0
    row = rows(out)[1]
    direct = path_length(mersenne_number(17))
    assert row[2:] == [
        str(direct.d), str(direct.odd_steps), str(direct.even_steps),
        str(direct.peak_bit_length),
    ]


def test_main_reraises_nothing(capsys):
    # Any library failure maps to an exit code, never an exception.
    try:
        code = main(["pathlen", "M0"])
    except CollatzPathError:
        pytest.fail("main must convert library errors to exit codes")
    assert code == 3
    capsys.readouterr()


def run_module(*argv):
    package_root = os.path.dirname(os.path.dirname(collatzpath.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("module", ["collatzpath", "collatzpath.cli"])
def test_python_dash_m_runs_the_command(module):
    done = run_module("-m", module, "verify", "--ranks", "1..3")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "rank,exponent,reference_d,computed_d,match\n"
        "1,2,7,7,true\n2,3,16,16,true\n3,5,106,106,true\n"
    )


def test_the_fan_out_imports_no_process_pool():
    script = (
        "import contextlib, io, sys\n"
        "from collatzpath import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--ranks', '1..14', '--jobs', '2'])\n"
        "pools = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "print(code, pools)\n"
    )
    done = run_module("-c", script)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 []\n", "")
