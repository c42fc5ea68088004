import json
import subprocess
import sys

import pytest

from quiver_virasoro import cli

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


def test_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check", "nosuchsuite"])
