"""Spans around the calls into each quenchsim layer, recorded from outside.

The tracer replaces every public entry point of a layer, and the numpy or
scipy routine a layer calls, by a timing wrapper. quenchsim modules import
functions by name (``experiments.build_basis`` is its own binding of
``fockspace.build_basis``), so each binding found in a loaded quenchsim
module is replaced, not just the defining one. Methods are patched on
their class.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of all spans opened during a run add up to the
time the outermost spans cover. A span re-entered while it is open (an
operator sum inside ``Segment.static_hamiltonian``) is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of each entry point it covers
SPANS = {
    "fockspace.build_basis": [("quenchsim.fockspace", "build_basis")],
    "fockspace.embed_state": [("quenchsim.fockspace", "embed_state")],
    "operators.assembly": [
        ("quenchsim.operators", "build_hopping"),
        ("quenchsim.operators", "build_onsite_anharmonicity"),
        ("quenchsim.operators", "build_transverse"),
        ("quenchsim.operators", "build_number_weighted"),
        ("quenchsim.operators", "total_number"),
        ("quenchsim.operators", "SparseOperator.__add__"),
        ("quenchsim.operators", "SparseOperator.__sub__"),
        ("quenchsim.operators", "SparseOperator.__neg__"),
        ("quenchsim.operators", "SparseOperator.__mul__"),
        ("quenchsim.operators", "SparseOperator.__rmul__"),
        ("quenchsim.operators", "SparseOperator.dense"),
        ("quenchsim.propagator", "Segment.static_hamiltonian"),
        ("quenchsim.propagator", "Segment.drive_operator"),
    ],
    "operators.matvec": [("quenchsim.operators", "SparseOperator.matvec")],
    "propagator.evolve": [
        ("quenchsim.propagator", "evolve_static"),
        ("quenchsim.propagator", "evolve_driven"),
    ],
    "propagator.tridiag": [("scipy.linalg", "eigh_tridiagonal")],
    "analysis.fidelity": [("quenchsim.analysis", "fidelity")],
    "analysis.site_populations": [("quenchsim.analysis", "site_populations")],
    "analysis.pauli_expectation": [("quenchsim.analysis", "pauli_expectation")],
    "analysis.half_chain_entropy": [("quenchsim.analysis", "half_chain_entropy")],
    "analysis.sector_spectrum": [("quenchsim.analysis", "sector_spectrum")],
    "analysis.eigh": [("numpy.linalg", "eigh")],
    "quenchlab.config.load": [("quenchsim.quenchlab.config", "load_config")],
    "quenchlab.records.write": [
        ("quenchsim.quenchlab.records", "write_records"),
        ("quenchsim.quenchlab.records", "write_spectrum"),
    ],
    "quenchlab.experiments": [("quenchsim.quenchlab.experiments", "run_experiment")],
}

# CSR complex128 matvec, computed from array sizes (cache misses ignored):
# per stored entry a 16-byte value and a 4-byte column index, per row a
# 4-byte row pointer, a 16-byte input read and a 16-byte output write.
def matvec_bytes(nnz: int, dim: int) -> int:
    return 20 * nnz + 36 * dim + 4


def _with_arguments(fn, hook):
    """Adapt a hook that reads a call's arguments by parameter name."""
    signature = inspect.signature(fn)

    def after(args, kwargs, out):
        hook(signature.bind(*args, **kwargs))

    return after


class Tracer:
    """Span totals, self times, call counts and per-layer counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.max_dim = 0
        self.max_nnz = 0
        self.matvec_bytes = 0
        self.simulated_ns = 0.0
        self.write_bytes = 0
        self._stack = []
        self._open = set()

    def wrap(self, name, fn, after=None):
        stack, open_, clock = self._stack, self._open, time.perf_counter
        total, self_s, calls = self.total, self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            frame = [0.0]
            open_.add(name)
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_.discard(name)
                total[name] += elapsed
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # counters read at span exit ------------------------------------------

    def _after_basis(self, args, kwargs, basis):
        self.max_dim = max(self.max_dim, basis.dim)

    def _after_assembly(self, args, kwargs, op):
        nnz = getattr(op, "nnz", None)
        if nnz is not None:
            self.max_nnz = max(self.max_nnz, nnz)

    def _after_matvec(self, args, kwargs, out):
        op = args[0]
        self.matvec_bytes += matvec_bytes(op.nnz, op.dim)

    def _after_evolve(self, bound):
        if "dt_ns" in bound.arguments:
            self.simulated_ns += abs(bound.arguments["dt_ns"])
        else:
            self.simulated_ns += abs(bound.arguments["t1_ns"] - bound.arguments["t0_ns"])

    def _after_write(self, bound):
        self.write_bytes += os.path.getsize(bound.arguments["path"])

    def install(self):
        """Wrap every entry point in SPANS wherever a caller can look it up."""
        after = {
            "fockspace.build_basis": self._after_basis,
            "operators.assembly": self._after_assembly,
            "operators.matvec": self._after_matvec,
        }
        by_arguments = {
            "propagator.evolve": self._after_evolve,
            "quenchlab.records.write": self._after_write,
        }
        for name, targets in SPANS.items():
            for module, attr in targets:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                hook = after.get(name)
                if name in by_arguments:
                    hook = _with_arguments(original, by_arguments[name])
                wrapper = self.wrap(name, original, hook)
                setattr(owner, attr, wrapper)
                if owner is not sys.modules[module]:
                    continue  # a method: every caller goes through the class
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "quenchsim" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def metrics(self, run_s: float) -> dict:
        """Per-layer numbers of one traced run whose wall time was run_s."""
        out = {}

        def span(name, calls=True):
            if calls:
                out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.total[name], "s")

        span("fockspace.build_basis")
        out["fockspace.dim"] = (self.max_dim, "count")
        span("fockspace.embed_state")
        span("operators.assembly", calls=False)
        out["operators.nnz"] = (self.max_nnz, "count")
        span("operators.matvec")
        out["operators.matvec.gb_computed"] = (self.matvec_bytes / 1e9, "GB")
        span("propagator.evolve")
        span("propagator.tridiag")
        out["propagator.self.s"] = (self.self_s["propagator.evolve"], "s")
        out["propagator.matvecs_per_ns"] = (
            self.calls["operators.matvec"] / self.simulated_ns if self.simulated_ns else 0.0,
            "1/ns",
        )
        for fn in ("fidelity", "site_populations", "pauli_expectation",
                   "half_chain_entropy", "sector_spectrum", "eigh"):
            span(f"analysis.{fn}")
        out["quenchlab.config.load.s"] = (self.total["quenchlab.config.load"], "s")
        out["quenchlab.records.write.s"] = (self.total["quenchlab.records.write"], "s")
        out["quenchlab.records.write.bytes"] = (self.write_bytes, "B")
        out["quenchlab.experiments.self.s"] = (self.self_s["quenchlab.experiments"], "s")
        in_run = sum(v for k, v in self.self_s.items() if k != "quenchlab.config.load")
        out["trace.run_s"] = (run_s, "s")
        out["trace.accounted"] = (in_run / run_s, "ratio")
        return out
