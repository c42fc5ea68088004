"""The README's quiver files and library example run as documented."""

import json
import re
from pathlib import Path

import pytest

from quiver_virasoro import cli
from quiver_virasoro.descendents import DescPoly, apply_L, context, enumerate_monomials
from quiver_virasoro.quivers import parse_quiver

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _block(first_line: str) -> str:
    (body,) = [body for _, body in BLOCKS if body.startswith(first_line + "\n")]
    return body


# the first line of each quiver file in the README
QUIVER_FILES = {"frozen": "# one directive per line; '#' starts a comment", "framed": "vertex a"}
# the frozen example in va-axioms, bracket and commutators (whose n + m = 0
# rows carry the frozen shift -delta_{n+m,0}), the framed one in the two
# suites that read its frame lines or its quiver alone
RUNS = [
    ("frozen", ["va-axioms", "--samples", "8"]),
    ("frozen", ["bracket", "--samples", "8"]),
    ("frozen", ["commutators", "--kmax", "1", "--degmax", "2"]),
    ("framed", ["commutators", "--kmax", "1", "--degmax", "2"]),
    ("framed", ["duality", "--kmax", "1", "--degmax", "2"]),
]


@pytest.mark.parametrize("name,run", RUNS, ids=[f"{name}-{run[0]}" for name, run in RUNS])
def test_readme_quiver_file_runs(capsys, tmp_path, name, run):
    qfile = tmp_path / f"{name}.quiver"
    qfile.write_text(_block(QUIVER_FILES[name]), encoding="utf-8")
    suite, *options = run
    assert cli.main(["check", suite, "--quiver", str(qfile), *options]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) > 1 and all(r["status"] == "pass" for r in rows)


def test_readme_frozen_file_fails_the_unshifted_commutator_relation():
    # the rows the commutators run above passes fail without the frozen
    # shift: exactly the 8 rows n = -1, m = 1, each by -2p
    q, dims, _ = parse_quiver(_block(QUIVER_FILES["frozen"]))
    ctx = context(q, dims)
    L = lambda k, x: apply_L(k, x, ctx)
    failed = 0
    for p in enumerate_monomials(q.vertices, 2):
        for n, m in ((-1, 0), (-1, 1), (0, 1)):
            plain = L(n, L(m, p)) - L(m, L(n, p)) - (m - n) * L(n + m, p)
            assert plain == (-2 * p if (n, m) == (-1, 1) else DescPoly.zero())
            failed += not plain.is_zero()
    assert failed == 8


def test_readme_library_example_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
