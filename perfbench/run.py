"""End-to-end and per-layer benchmark of the ``qvc`` checker.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flag-framed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload
    python3 perfbench/run.py --workload flag-wt0 --quick      # reduced grid

Each run of a workload starts ``qvc check ...`` at ``--jobs 1`` in a fresh
interpreter, one child at a time, because every real ``qvc`` run starts with
cold caches.  Untraced children repeat until ``--seconds`` have passed; the
end-to-end metrics are medians over them.  With ``--trace 1`` one traced child
follows them (see ``layers.py``) and the run reports the per-layer metrics.

Every child is checked: exit code 0, the workload's fixed row count, every
row passing, and the SHA-256 of the rows with ``ms`` stripped equal to the
reference below (``qvc`` output is deterministic except for ``ms``).  Cases a
child lost or failed count as failed.

The workloads are fixed grids and ``qvc`` takes no seed, so ``--seed`` does
not change the cases.  It chooses each child's ``PYTHONHASHSEED`` instead: the
string-hash layout moves a child's time by several per cent, so the same seed
gives the same layouts, and runs with different seeds sample different ones.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
line before it holds the run metadata, the sample counts and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

ROOT = layers.ROOT
SRC = layers.SRC
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Grid:
    argv: tuple[str, ...]
    cases: int
    digest: str  # SHA-256 of the ms-stripped rows at the seed commit


@dataclass(frozen=True)
class Workload:
    full: Grid
    quick: Grid
    required: tuple[str, ...]  # spans the traced run must see called


WORKLOADS = {
    # Full flag of C^5: localization dominates, and 20k mostly vacuous cases
    # expose per-case plumbing in case_ms_p50.
    "flag-framed": Workload(
        Grid(("framed", "--flag", "1,2,3,4:5", "--degmax", "9", "--kmax", "1"), 19980,
             "19de9aaa15494aaad74dd4b6c4cfb984717ce378838ff0cf9e226495d2f42558"),
        Grid(("framed", "--flag", "1,2:3", "--degmax", "5", "--kmax", "1"), 148,
             "f38384a80c1ea55cc9d691a1be2dd20310de64467ca619a20750f12a3b0bcfc2"),
        ("cli.main", "descendents.parse_poly", "descendents.apply_framed_L",
         "flags.framed_virasoro_residual", "flags.realize_and_integrate"),
    ),
    # The same two layers in the opposite balance: deep L_wt0 chains of
    # DescPoly arithmetic, few fixed points to integrate over.
    "flag-wt0": Workload(
        Grid(("wt0", "--flag", "1,2:5"), 1214,
             "69dfc8c092cc1c18a2c8cccc7c227743065d3c6f184e0817a869246c09c3a615"),
        Grid(("wt0", "--flag", "1,2:3"), 138,
             "f51fb84ab52554ba9f0417b68edbe0452cd8ec63ee563aa0b70b0f4a505dd807"),
        ("descendents.apply_Lwt0", "descendents.apply_R", "descendents.DescPoly.__add__",
         "flags.weight_zero_residual", "flags.realize_and_integrate"),
    ),
    # General vertex_mode reconstruction; almost all time is evaluation.
    "lattice-axioms": Workload(
        Grid(("va-axioms", "--preset", "A_2"), 650,
             "c733cbec6d80a7610b866e74db4df5e4018195780583b4920da79cfd2f4d1dae"),
        Grid(("va-axioms", "--preset", "A_1", "--samples", "40"), 130,
             "42b7d96004e927c4910af0c9ffd6a22f76b6b99813fb58e3e268b0b963248061"),
        ("vertex_algebra.vertex_mode", "vertex_algebra.heisenberg_mode",
         "vertex_algebra.Lattice.q", "vertex_algebra.virasoro_mode"),
    ),
    # Dominated by set-up: the residual-free state pool runs k0_residual,
    # virasoro_mode and the linalg kernel before the first case.
    "lattice-bracket": Workload(
        Grid(("bracket", "--preset", "A_2", "--samples", "200"), 202,
             "f46b0cd71502641b4626659808790157637b58e65f6fe11da8c48ceb8c8beda7"),
        Grid(("bracket", "--preset", "A_1", "--samples", "100"), 101,
             "79285bcfbd446bff634fef3ae6718fcd5d080a0e9de2ad143cc67158592577a7"),
        ("linalg.kernel_basis", "vertex_algebra.k0_residual",
         "vertex_algebra.virasoro_mode", "vertex_algebra.Lattice.q"),
    ),
}

# (name, unit); failed_frac is reported beside them because it is 0 when
# the program is correct.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
P90 = 0.9
MIN_BEYOND = 10  # samples a reported percentile must have above it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    return n - max(1, math.ceil(q * n))


def rows_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps({k: v for k, v in row.items() if k != "ms"},
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    rows: list
    trace: dict | None = None

    @property
    def setup_s(self) -> float:
        """Wall time outside the cases' own ``ms``."""
        return self.wall_s - sum(r.get("ms", 0) for r in self.rows) / 1000.0

    def failed(self, grid: Grid) -> int:
        """Cases lost or failed; all of them when the run is not trusted."""
        bad = max(0, grid.cases - len(self.rows))
        bad += sum(1 for r in self.rows if r.get("status") != "pass")
        if bad == 0 and (self.code != 0 or rows_digest(self.rows) != grid.digest):
            bad = grid.cases
        return bad


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(grid: Grid, workdir: Path, deadline: float, hash_seed: int,
              trace: bool = False) -> Child:
    out, err = workdir / "stdout", workdir / "stderr"
    trace_out = workdir / "trace.json"
    if trace:
        argv = [sys.executable, str(Path(layers.__file__)), str(trace_out)]
    else:
        argv = [sys.executable, "-m", "quiver_virasoro.cli"]
    argv += ["check", *grid.argv, "--jobs", "1"]
    env = {**_env(), "PYTHONHASHSEED": str(hash_seed)}
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=env)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rows = []
    for line in out.read_text().splitlines():
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            break
    if proc.returncode != 0:
        sys.stderr.write(err.read_text()[-2000:])
    tr = json.loads(trace_out.read_text()) if trace and trace_out.exists() else None
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, rows, tr)


def end_to_end(children: list[Child]) -> dict:
    ms = [r["ms"] for c in children for r in c.rows if "ms" in r]
    if samples_beyond(len(ms), P90) < MIN_BEYOND:
        raise ValueError(f"{len(ms)} case samples leave fewer than {MIN_BEYOND} beyond p90")
    values = {
        "wall_s": statistics.median(c.wall_s for c in children),
        "setup_s": statistics.median(c.setup_s for c in children),
        "case_ms_p50": percentile(ms, 0.5),
        "case_ms_p90": percentile(ms, P90),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced: Child, untraced_wall: float) -> dict:
    tr = traced.trace
    metrics = {}
    for name in layers.span_names():
        metrics[f"{name}.calls"] = {"value": tr["calls"][name], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": tr["self_s"][name], "unit": "s"}
    covered = 0.0
    for layer in layers.TARGETS:
        total = sum(v for k, v in tr["self_s"].items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = {"value": total, "unit": "s"}
        covered += total
    live = tr["live"] / tr["probed"] if tr["probed"] else 0.0
    metrics["flags.live_ratio"] = {"value": live, "unit": "ratio"}
    metrics["trace_overhead"] = {"value": traced.wall_s / untraced_wall, "unit": "ratio"}
    metrics["trace_coverage"] = {"value": covered / traced.wall_s, "unit": "ratio"}
    return metrics


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_meta() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def run_workload(name: str, seconds: float, trace: bool, quick: bool, seed: int) -> dict:
    wl = WORKLOADS[name]
    grid = wl.quick if quick else wl.full
    load_start = os.getloadavg()
    deadline = time.monotonic() + RUN_LIMIT_S
    hash_seeds = random.Random(seed)
    children: list[Child] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        t0 = time.monotonic()
        while not children or time.monotonic() - t0 < seconds:
            children.append(run_child(grid, workdir, deadline, hash_seeds.randrange(2**32)))
        traced = (run_child(grid, workdir, deadline, hash_seeds.randrange(2**32), trace=True)
                  if trace else None)
    checked = children + ([traced] if traced else [])
    attempted = grid.cases * len(checked)
    failed = sum(c.failed(grid) for c in checked)
    errors = []
    if trace:
        if traced.trace is None:
            errors.append("traced child wrote no trace")
        else:
            errors += [f"span {s} was called 0 times" for s in wl.required
                       if not traced.trace["calls"].get(s)]
            if traced.trace["missing"]:
                print(f"perfbench: not found, reported as 0: {traced.trace['missing']}",
                      file=sys.stderr)
    try:
        e2e = end_to_end(children)
    except ValueError as exc:
        errors.append(str(exc))
        e2e = {}
    for e in errors:
        print(f"perfbench: {name}: {e}", file=sys.stderr)
    if errors:
        failed, metrics = attempted, {}
    else:
        metrics = per_layer(traced, e2e["wall_s"]["value"]) if trace else e2e
    summary = {
        "workload": name,
        "qvc_argv": ["check", *grid.argv, "--jobs", "1"],
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "end_to_end": e2e,
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "samples": {"runs": len(children), "cases": sum(len(c.rows) for c in children),
                    "wall_s_each": [c.wall_s for c in children],
                    "setup_s_each": [c.setup_s for c in children]},
        "meta": {**run_meta(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
    }
    if trace and not errors:
        summary["trace_overhead"] = metrics["trace_overhead"]["value"]
        summary["trace_coverage"] = metrics["trace_coverage"]["value"]
    print(json.dumps(summary), flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def warm_up() -> None:
    """Compile the package's bytecode once, so no child pays for it."""
    subprocess.run([sys.executable, "-c", "import quiver_virasoro.cli"],
                   cwd=ROOT, env=_env(), check=True, timeout=60)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced grids, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "quiver_virasoro" / "cli.py").is_file():
        print(f"perfbench: no qvc sources under {SRC}", file=sys.stderr)
        return 2
    warm_up()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seconds, bool(args.trace), args.quick, args.seed)
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
