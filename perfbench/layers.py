"""Per-layer tracing of ``qvc`` from outside the package.

Run as a script, this is the traced child of the benchmark::

    python3 perfbench/layers.py OUT.json check framed --flag 1,2:3

It imports ``quiver_virasoro`` from ``src/``, wraps the public functions
listed in ``TARGETS`` in timing spans, runs ``qvc`` with the remaining
arguments, and writes the aggregated spans to ``OUT.json``.  Nothing under
``src/`` is modified: every wrapper is bound at run time, in every module
and class that holds the original function object, so a name imported with
``from .descendents import apply_L`` is traced like ``descendents.apply_L``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Layer (package module) -> traced public functions, as attribute paths.
TARGETS = {
    "linalg": ("rref", "kernel_basis", "inverse"),
    "quivers": ("parse_quiver", "serialize_quiver", "todd_matrix", "framify"),
    "descendents": (
        "parse_poly", "poly_to_str", "enumerate_monomials", "apply_R", "T_class",
        "apply_L", "apply_framed_L", "framed_T_class", "apply_Lwt0", "zeta",
        "DescPoly.__add__", "DescPoly.__mul__",
    ),
    "flags": (
        "realize_and_integrate", "framed_virasoro_residual", "weight_zero_residual",
        "flag_context", "infinity_context",
    ),
    "vertex_algebra": (
        "Lattice.q", "Lattice.dual_basis", "heisenberg_mode", "vertex_mode",
        "virasoro_mode", "translate", "k0_residual", "max_nonzero_mode",
        "VAState.__add__",
    ),
    "cli": ("main",),
}

# The span whose calls are split into live and vacuous ones for flags.live_ratio.
LIVE_PROBED = "flags.realize_and_integrate"


def span_names() -> list[str]:
    """Every traced span, as ``<layer>.<attribute path>``."""
    return [f"{layer}.{path}" for layer, paths in TARGETS.items() for path in paths]


class Tracer:
    """Aggregates nested spans into call counts and self time.

    A span's self time is its duration minus the durations of the spans it
    directly encloses, so the self times of all spans add up to the time
    covered by the outermost ones.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list[float]] = []  # [start, time in child spans]

    def wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        clock, stack, calls, self_s = self.clock, self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def untimed(self, fn, *args, **kwargs):
        """Run ``fn`` outside every span: its time counts for no layer."""
        t0 = self.clock()
        result = fn(*args, **kwargs)
        if self._stack:
            self._stack[-1][1] += self.clock() - t0
        return result


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def _rebind(namespaces, original, replacement) -> None:
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)


def install(tracer: Tracer):
    """Wrap every target; return (missing span names, live counter).

    The live counter is a two-item list ``[live, probed]`` for the calls of
    ``LIVE_PROBED``: a call is live when the degree-dim component of its
    polynomial is nonzero.
    """
    modules = {layer: importlib.import_module(f"quiver_virasoro.{layer}") for layer in TARGETS}
    namespaces = [importlib.import_module("quiver_virasoro"), *modules.values()]
    namespaces += [
        value for m in list(namespaces) for value in vars(m).values()
        if isinstance(value, type) and value.__module__.startswith("quiver_virasoro")
    ]
    flags = modules["flags"]
    live = [0, 0]

    def is_live(p, shape, *_args, **_kwargs):
        return not p.homogeneous_component(flags.dimension(shape)).is_zero()

    missing = []
    for layer, paths in TARGETS.items():
        for path in paths:
            name = f"{layer}.{path}"
            original = _resolve(modules[layer], path)
            if not callable(original):
                missing.append(name)
                tracer.calls[name] = 0
                tracer.self_s[name] = 0.0
                continue
            wrapped = tracer.wrap(name, original)
            if name == LIVE_PROBED:
                wrapped = _probed(tracer, wrapped, is_live, live)
            _rebind(namespaces, original, wrapped)
    return missing, live


def _probed(tracer: Tracer, fn, predicate, counter):
    def probed(*args, **kwargs):
        counter[0] += tracer.untimed(predicate, *args, **kwargs)
        counter[1] += 1
        return fn(*args, **kwargs)

    probed.__wrapped__ = fn
    return probed


def main(argv: list[str]) -> int:
    out_path, qvc_argv = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    import quiver_virasoro

    if Path(quiver_virasoro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported quiver_virasoro from {quiver_virasoro.__file__}")
    tracer = Tracer()
    missing, live = install(tracer)
    cli = importlib.import_module("quiver_virasoro.cli")
    code = 1
    try:
        code = cli.main(qvc_argv)
    finally:
        Path(out_path).write_text(json.dumps({
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "live": live[0],
            "probed": live[1],
            "missing": missing,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
