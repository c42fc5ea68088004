import argparse
import json
import subprocess
import sys

import pytest

from quiver_virasoro import cli
from quiver_virasoro.descendents import poly_to_str

ROW_KEYS = {"case", "ms", "residual", "status", "suite"}


def _rows(captured_out):
    return [json.loads(line) for line in captured_out.strip().splitlines()]


def _sans_ms(rows):
    return [{k: v for k, v in r.items() if k != "ms"} for r in rows]


# ---------------------------------------------------------------------------
# integrate

@pytest.mark.parametrize(
    "expr,flag,expected",
    [("t[1,1]^4", "2:4", "2"), ("t[2,1]", "1:3", "1/2"), ("1", "1:2", "0")],
)
def test_integrate_examples(capsys, expr, flag, expected):
    assert cli.main(["integrate", expr, "--flag", flag]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_integrate_rejects_garbage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["integrate", "t[0,1]", "--flag", "1:2"])
    assert "cannot parse" in str(exc.value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["integrate", "t[1,1]", "--flag", "5:2"])
    assert "flag" in str(exc.value).lower()


@pytest.mark.parametrize(
    "argv",
    [["integrate", "1/0", "--flag", "1:2"],
     ["integrate", "t[1,9]", "--flag", "1:2"]],
)
def test_integrate_bad_input_is_one_error_line(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    message = str(exc.value)
    assert message.startswith("qvc: ") and "\n" not in message


def test_integrate_runs_as_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quiver_virasoro.cli", "integrate", "t[1,1]^4",
         "--flag", "2:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


# ---------------------------------------------------------------------------
# check: output contract

def test_check_rows_have_the_wire_schema(capsys):
    rc = cli.main(["check", "framed", "--flag", "1:2", "--kmax", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = _rows(captured.out)
    assert rows
    for row in rows:
        assert set(row) == ROW_KEYS
        assert row["suite"] == "framed"
        assert row["status"] == "pass"
        assert row["residual"] == "0"
        assert isinstance(row["ms"], float) or isinstance(row["ms"], int)
        # keys are emitted sorted
    first_line = captured.out.splitlines()[0]
    assert first_line == json.dumps(json.loads(first_line), sort_keys=True)
    assert "failed" in captured.err


def test_paper_delta_audit_fails_with_residual_one(capsys):
    rc = cli.main(
        ["check", "framed", "--flag", "1:2", "--kmax", "0",
         "--convention", "paper-delta"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    rows = _rows(captured.out)
    bad = [r for r in rows if r["status"] == "fail"]
    assert bad
    assert any(r["residual"] == "1" and "t[1,1]" in r["case"] for r in bad)
    assert "FAIL" in captured.err


def test_check_is_deterministic_modulo_ms(capsys):
    argv = ["check", "commutators", "--preset", "A_1", "--dim", "1",
            "--kmax", "1", "--degmax", "2"]
    assert cli.main(argv) == 0
    first = _sans_ms(_rows(capsys.readouterr().out))
    assert cli.main(argv) == 0
    second = _sans_ms(_rows(capsys.readouterr().out))
    assert first == second
    assert cli.main(argv + ["--jobs", "2"]) == 0
    third = _sans_ms(_rows(capsys.readouterr().out))
    assert first == third


# one small grid per suite; each builds the payload types its checks read
JOBS_GRIDS = {
    "framed": ["--flag", "1,2:3"],
    "wt0": ["--flag", "1,2:3"],
    "duality": ["--preset", "A_1"],
    "va-axioms": ["--preset", "A_1", "--samples", "8"],
    "bracket": ["--preset", "A_1", "--samples", "10"],
    "commutators": ["--preset", "A_2", "--frame", "1,1", "--kmax", "2", "--degmax", "3"],
}


@pytest.mark.parametrize("suite", sorted(JOBS_GRIDS))
def test_rows_do_not_depend_on_jobs(capsys, suite):
    argv = ["check", suite, *JOBS_GRIDS[suite]]
    rows = []
    for jobs in ("1", "2"):
        assert cli.main(argv + ["--jobs", jobs]) == 0
        rows.append(_sans_ms(_rows(capsys.readouterr().out)))
    assert rows[0] == rows[1] and len(rows[0]) > 1


def test_report_file_matches_stdout(capsys, tmp_path):
    report = tmp_path / "rows.jsonl"
    argv = ["check", "duality", "--preset", "A_1", "--kmax", "1",
            "--degmax", "2", "--report", str(report)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert report.read_text() == out


def test_check_accepts_quiver_files(capsys, tmp_path):
    qfile = tmp_path / "a1.quiver"
    qfile.write_text("vertex 1\ndim 1 2\n")
    rc = cli.main(["check", "commutators", "--quiver", str(qfile),
                   "--kmax", "1", "--degmax", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert all(r["status"] == "pass" for r in _rows(captured.out))


def test_samples_flag_sets_the_randomized_case_count(capsys):
    argv = ["check", "bracket", "--preset", "A_1", "--samples", "5"]
    assert cli.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    # one deterministic base case per unfrozen simple root, then the samples
    sampled = [r for r in rows if r["case"].startswith("pair")]
    assert len(sampled) == 5
    assert all(r["status"] == "pass" for r in rows)


# ---------------------------------------------------------------------------
# check: error paths

def test_unknown_preset_lists_the_known_names():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "commutators", "--preset", "nope"])
    msg = str(exc.value)
    assert "unknown preset" in msg and "a1" in msg


def test_quiver_and_preset_are_mutually_exclusive(tmp_path):
    qfile = tmp_path / "q.quiver"
    qfile.write_text("vertex 1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "commutators", "--preset", "A_1",
                  "--quiver", str(qfile)])
    assert "mutually exclusive" in str(exc.value)


def test_quiver_or_preset_is_required():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "commutators"])
    assert "--quiver or --preset" in str(exc.value)


def test_flag_suites_require_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "framed"])
    assert "--flag" in str(exc.value)


def test_bad_dim_vector_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "commutators", "--preset", "A_2", "--dim", "1"])
    assert "--dim" in str(exc.value)


def _error_line(argv) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    message = str(exc.value)
    assert message.startswith("qvc: ") and "\n" not in message
    return message


@pytest.mark.parametrize(
    "argv",
    [["check", "framed", "--flag", "1:2", "--kmax", "-5"],
     ["check", "va-axioms", "--preset", "A_1", "--samples", "0"]],
)
def test_suite_with_no_cases_fails(capsys, argv):
    assert "no cases" in _error_line(argv)
    assert capsys.readouterr().out == ""


def test_suite_with_no_cases_exits_one_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "quiver_virasoro.cli", "check", "framed",
         "--flag", "1:2", "--kmax", "-5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("qvc: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["check", "framed", "--flag", "1,2,3,4:5", "--kmax", "0", "--degmax", "9"],
     ["check", "wt0", "--flag", "2:4", "--degmax", "4"]],
)
def test_flag_suite_without_an_admissible_case_fails(capsys, argv):
    # every flag operator is homogeneous: no case here can integrate to nonzero
    assert "no admissible case" in _error_line(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_rejected(capsys, jobs):
    message = _error_line(["check", "framed", "--flag", "1:2", "--jobs", jobs])
    assert "--jobs" in message
    assert capsys.readouterr().out == ""


def test_worker_count_is_capped_by_the_case_count(capsys, monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(cli, "Pool", SerialPool)
    argv = ["check", "bracket", "--preset", "A_1", "--samples", "2"]
    assert cli.main(argv + ["--jobs", "1000000"]) == 0
    assert started == [3] and len(_rows(capsys.readouterr().out)) == 3
    assert cli.main(argv + ["--jobs", "1"]) == 0
    assert started == [3]


def test_unopenable_report_path_fails_before_any_case(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "quiver_virasoro.cli", "check", "framed", "--flag", "1:2",
         "--report", str(tmp_path / "missing" / "x.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("qvc: cannot open report file") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv,flag",
    [(["check", "commutators", "--preset", "A_2", "--dim=-1,1"], "--dim"),
     (["check", "commutators", "--preset", "A_2", "--frame=0,-2"], "--frame")],
)
def test_negative_dim_or_frame_is_rejected(argv, flag):
    assert f"{flag} entries must be nonnegative" in _error_line(argv)


@pytest.mark.parametrize("directive", ["dim", "frame"])
def test_quiver_file_missing_a_vertex_is_rejected(tmp_path, directive):
    qfile = tmp_path / "gap.quiver"
    qfile.write_text(f"vertex a\nvertex b\nedge a b\n{directive} a 1\n")
    message = _error_line(["check", "commutators", "--quiver", str(qfile)])
    assert f"no {directive} for vertex 'b'" in message


def test_frame_on_a_quiver_with_frozen_vertices_is_rejected(tmp_path):
    qfile = tmp_path / "frozen.quiver"
    qfile.write_text("vertex 0 frozen\nvertex 1\nedge 0 1\n")
    message = _error_line(["check", "commutators", "--quiver", str(qfile), "--frame", "1"])
    assert "without frozen vertices" in message


def test_malformed_quiver_file_is_rejected(tmp_path):
    qfile = tmp_path / "bad.quiver"
    qfile.write_text("vertex a\narrow a a\n")
    assert "invalid quiver file" in _error_line(["check", "commutators", "--quiver", str(qfile)])


def test_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check", "nosuchsuite"])


# ---------------------------------------------------------------------------
# a raising case becomes an error row


def test_raising_case_becomes_an_error_row(capsys, monkeypatch):
    argv = ["check", "commutators", "--preset", "A_1", "--kmax", "1", "--degmax", "1"]
    assert cli.main(argv) == 0
    clean = _rows(capsys.readouterr().out)
    evaluate = cli.commutator_defect

    def flaky(n, m, p, ctx, convention):
        if (n, m, poly_to_str(p)) == (0, 1, "t[1,1]"):
            raise RuntimeError("boom")
        return evaluate(n, m, p, ctx, convention)

    monkeypatch.setattr(cli, "commutator_defect", flaky)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    errors = [r for r in rows if r["status"] == "error"]
    assert [r["case"] for r in errors] == ["n=0,m=1,p=t[1,1]"]
    assert errors[0]["error"] == "RuntimeError: boom" and errors[0]["residual"] is None
    assert _sans_ms([r for r in rows if r["status"] != "error"]) == _sans_ms(
        [r for r in clean if r["case"] != "n=0,m=1,p=t[1,1]"])
    assert "0 failed, 1 errors" in captured.err
    assert "ERROR n=0,m=1,p=t[1,1] RuntimeError: boom" in captured.err


def test_error_rows_agree_across_jobs(tmp_path):
    # Q_sym of this quiver is degenerate, so its Virasoro cases raise
    qfile = tmp_path / "degenerate.quiver"
    qfile.write_text("vertex s frozen\nvertex t\n")
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "quiver_virasoro.cli", "check", "va-axioms",
             "--quiver", str(qfile), "--samples", "8", "--jobs", jobs],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        outs.append(_sans_ms(_rows(proc.stdout)))
    assert outs[0] == outs[1] and len(outs[0]) == 26
    errors = [r for r in outs[0] if r["status"] == "error"]
    assert errors and all(r["case"].startswith("virasoro[") for r in errors)
    assert {r["error"] for r in errors} == {
        "ValueError: symmetrized form is degenerate; no dual basis"}
    assert all(r["status"] == "pass" for r in outs[0] if r not in errors)


def test_failing_builder_is_one_error_line(tmp_path):
    # the bracket pool runs k0_residual while building, which needs the
    # dual basis of this quiver's degenerate Q_sym
    qfile = tmp_path / "degenerate.quiver"
    qfile.write_text("vertex s frozen\nvertex t\n")
    proc = subprocess.run(
        [sys.executable, "-m", "quiver_virasoro.cli", "check", "bracket", "--quiver", str(qfile)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("qvc: cannot build suite bracket: "
                           "symmetrized form is degenerate; no dual basis\n")


# ---------------------------------------------------------------------------
# each suite parses exactly the options it reads

ALL_OPTIONS = ("--quiver", "--preset", "--dim", "--frame", "--flag", "--kmax", "--degmax",
               "--convention", "--samples", "--jobs", "--report")
SUITE_OPTIONS = {
    "commutators": {"--quiver", "--preset", "--dim", "--frame", "--kmax", "--degmax",
                    "--convention", "--jobs", "--report"},
    "framed": {"--flag", "--kmax", "--degmax", "--convention", "--jobs", "--report"},
    "wt0": {"--flag", "--degmax", "--jobs", "--report"},
    "duality": {"--quiver", "--preset", "--dim", "--kmax", "--degmax", "--jobs", "--report"},
    "va-axioms": {"--quiver", "--preset", "--samples", "--jobs", "--report"},
    "bracket": {"--quiver", "--preset", "--samples", "--jobs", "--report"},
}
# a small valid run of each suite, and a valid value for every option
SMALL_RUNS = {
    "commutators": ["--preset", "A_1", "--kmax", "1", "--degmax", "1"],
    "framed": ["--flag", "1:2", "--kmax", "1"],
    "wt0": ["--flag", "1:2"],
    "duality": ["--preset", "A_1", "--kmax", "0", "--degmax", "1"],
    "va-axioms": ["--preset", "A_1", "--samples", "2"],
    "bracket": ["--preset", "A_1", "--samples", "2"],
}
OPTION_VALUES = {"--quiver": "q.quiver", "--preset": "A_1", "--dim": "1", "--frame": "1",
                 "--flag": "1:2", "--kmax": "1", "--degmax": "2",
                 "--convention": "paper-delta", "--samples": "5", "--jobs": "1",
                 "--report": "rows.jsonl"}
DROPPED = [(suite, opt) for suite in SUITE_OPTIONS for opt in ALL_OPTIONS
           if opt not in SUITE_OPTIONS[suite]]


def _choices(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_suite_parser_takes_exactly_its_options():
    suites = _choices(_choices(cli.build_parser())["check"])
    got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
           for name, p in suites.items()}
    assert got == SUITE_OPTIONS
    assert sum(map(len, got.values())) == 36 and len(DROPPED) == 30


class _ReadLog(argparse.Namespace):
    """Records every attribute read after ``reads`` is reset."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("suite", sorted(SUITE_OPTIONS))
def test_each_suite_reads_every_option_it_takes(capsys, tmp_path, suite):
    args = cli.build_parser().parse_args(
        ["check", suite, *SMALL_RUNS[suite], "--report", str(tmp_path / "rows.jsonl")],
        namespace=_ReadLog())
    args.reads = set()
    assert args.func(args) == 0
    wanted = {opt[2:] for opt in SUITE_OPTIONS[suite]}
    assert wanted <= args.reads, wanted - args.reads


@pytest.mark.parametrize(
    "argv",
    [["check", suite, *SMALL_RUNS[suite], opt, OPTION_VALUES[opt]] for suite, opt in DROPPED]
    + [["check", "bracket", "--preset", "A_1", "--samples", "-3"],
       ["check", "commutators", "--preset", "A_1", "--convention", "paper-delta"]],
    ids=[f"{suite}{opt}" for suite, opt in DROPPED] + ["negative-samples", "unframed-convention"],
)
def test_inputs_that_would_change_nothing_are_rejected(capsys, argv):
    _error_line(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["check", "framed", "--flag", "1:2", "--kmax", "x"],
     ["check", "nosuch"],
     ["check", "framed", "--kmax", "1"],
     ["check", "wt0", "--flag", "1:2", "--convention", "paper-delta"]],
    ids=["bad-int", "unknown-suite", "missing-flag", "dropped-option"],
)
def test_parse_errors_are_one_qvc_line_and_exit_one(argv):
    proc = subprocess.run([sys.executable, "-m", "quiver_virasoro.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("qvc: ") and proc.stderr.count("\n") == 1
