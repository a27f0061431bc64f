"""What the benchmark harness in bench/ relies on in the package.

bench/tracer.py wraps entry points named in its SPANS table and reads some
of their arguments by name; bench/child.py replaces two bindings of
``quenchlab.experiments`` and calls the observer with ``cross=``. A rename
or deletion in the package breaks only the traced benchmark runs, so these
tests catch it here. bench/ is only read.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from quenchsim import AnharmonicityProfile, CouplingProfile, build_basis, parse_product_state
from quenchsim.quenchlab import experiments, load_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _tracer().SPANS
TARGETS = [(span, module, attr) for span, targets in SPANS.items() for module, attr in targets]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        # the tracer patches methods on the class that defines them
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


@pytest.mark.parametrize("span,module,attr", TARGETS, ids=[f"{m}:{a}" for _, m, a in TARGETS])
def test_span_target_resolves(span, module, attr):
    assert callable(_resolve(module, attr))


def test_span_modules_loaded_by_package_import():
    # Tracer.install reads sys.modules[module] without importing it, so each
    # module SPANS names must be loaded by the import bench/child.py makes;
    # a numpy-only propagator once left scipy.linalg out and traced runs
    # died with KeyError.
    code = ("import json, sys\nimport quenchsim.quenchlab\n"
            f"print(json.dumps([m for m in {sorted({m for _, m, _ in TARGETS})!r} "
            "if m not in sys.modules]))")
    src = os.path.join(os.path.dirname(BENCH), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(out.stdout) == []


def test_traced_argument_names_exist():
    for module, attr in SPANS["propagator.evolve"]:
        params = inspect.signature(_resolve(module, attr)).parameters
        assert "dt_ns" in params or {"t0_ns", "t1_ns"} <= set(params), attr
    for module, attr in SPANS["quenchlab.records.write"]:
        assert "path" in inspect.signature(_resolve(module, attr)).parameters, attr


def test_child_hooks_exist():
    assert callable(experiments.sector_spectrum)
    config = load_config("""
[lattice]
sites = 2
levels = 2
[state]
initial = 01
[protocol]
mode = single-run
duration_ns = 1
""")
    psi0 = parse_product_state("01", build_basis(2, 2))
    observe = experiments._observer(config, psi0)
    assert observe(0.0, psi0).fidelity == pytest.approx(1.0)
    assert observe(0.0, psi0, cross=0.25).fidelity == 0.25


def _count_propagation(monkeypatch, entry, protocol, psi0):
    """Run the protocol, counting calls of propagator.<entry> and matvecs.

    The tracer times propagation only through evolve_static/evolve_driven,
    one call per sample interval, and bench/selfcheck.py asserts that the
    layer spans cover the run: a matvec outside them would escape both.
    Its ``operators.matvec.calls`` and ``gb_computed`` price one call as one
    product of the operator, so each Krylov row must make exactly one call.
    """
    from quenchsim import propagator
    from quenchsim.operators import SparseOperator

    counts = {"evolve": 0, "matvec": 0, "stray": 0, "rows": 0}
    inside = [False]
    evolve, matvec = getattr(propagator, entry), SparseOperator.matvec
    extend = propagator._Krylov._extend

    def counted_evolve(*args, **kwargs):
        counts["evolve"] += 1
        inside[0] = True
        try:
            return evolve(*args, **kwargs)
        finally:
            inside[0] = False

    def counted_matvec(self, vec, out=None):
        counts["matvec"] += 1
        counts["stray"] += not inside[0]
        return matvec(self, vec, out)

    def counted_extend(self):
        counts["rows"] += 1
        return extend(self)

    monkeypatch.setattr(propagator, entry, counted_evolve)
    monkeypatch.setattr(SparseOperator, "matvec", counted_matvec)
    monkeypatch.setattr(propagator._Krylov, "_extend", counted_extend)
    pairs = list(propagator.run_protocol(protocol, psi0))
    assert counts["evolve"] == len(pairs) - 1
    assert counts["matvec"] > 0 and counts["stray"] == 0
    assert counts["matvec"] == counts["rows"]
    return counts["evolve"]


def test_undriven_propagation_runs_inside_evolve_static(monkeypatch):
    from quenchsim import propagator

    L = 4
    seg = propagator.Segment(10.0, CouplingProfile.from_mhz([16.0] * (L - 1)),
                             AnharmonicityProfile.from_mhz([240.0] * L))
    protocol = propagator.Protocol((seg, propagator.reverse_of(seg)), sample_dt_ns=0.5)
    psi0 = parse_product_state("+1+0", build_basis(L, 3))
    assert _count_propagation(monkeypatch, "evolve_static", protocol, psi0) == 40


def test_driven_propagation_runs_inside_evolve_driven(monkeypatch):
    from quenchsim import propagator
    from quenchsim.operators import DriveSpec

    L = 4
    fwd, bwd = (DriveSpec.staggered_odd(L, eps, 120.0) for eps in (213.6, 400.0))
    seg = propagator.Segment(2 * fwd.period_ns, CouplingProfile.from_mhz([10.8] * (L - 1)),
                             AnharmonicityProfile.from_mhz([240.0] * L), drive=fwd)
    protocol = propagator.Protocol((seg, propagator.reverse_of(seg, drive_override=bwd)),
                                   sample_dt_ns=fwd.period_ns / 4)
    psi0 = parse_product_state("+1+0", build_basis(L, 3))
    assert _count_propagation(monkeypatch, "evolve_driven", protocol, psi0) == 16


def test_tracer_installs_after_the_package_import():
    # A traced child imports quenchsim.quenchlab, then runs Tracer.install.
    # scipy.linalg is then in sys.modules but not yet executed, so the
    # membership test above cannot tell it from a loaded one: install must
    # load it and wrap every target.
    code = f"""
import importlib.util, json, sys
import quenchsim.quenchlab
spec = importlib.util.spec_from_file_location("tracer", {os.path.join(BENCH, "tracer.py")!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
unwrapped = []
for module, attr in {[(m, a) for _, m, a in TARGETS]!r}:
    target = sys.modules[module]
    for part in attr.split("."):
        target = getattr(target, part)
    if not hasattr(target, "__wrapped__"):
        unwrapped.append(module + ":" + attr)
print(json.dumps(unwrapped))
"""
    src = os.path.join(os.path.dirname(BENCH), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(out.stdout) == []
