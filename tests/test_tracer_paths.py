"""The benchmark tracer wraps `umbilic` attributes by dotted path from
outside the package; a path that stops resolving silently drops its layer
metric.  This test catches a rename or deletion before a benchmark run does.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Import perfbench/tracer.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_paths_resolve():
    tracer = load_tracer()
    paths = [path for *_, wrapped in tracer.SPANS.values() for path in wrapped]
    paths.append("umbilic.pinching.pinch_ratio")
    # the tracer also patches umbilic.spectral.cg, which no longer exists;
    # it reports that path as missing, so it is not checked here.  So is
    # `measures`: the area, barycenter and volume are `Mesh` properties, and
    # the tracer's two `measures` paths read 0
    removed = {"umbilic.cli.measures", "umbilic.pinching.measures"}
    paths = [p for p in paths if p not in removed]
    assert [p for p in paths if tracer._resolve(p) is None] == []


def counting(module, name, monkeypatch):
    """Replace module.name by a wrapper; return the list of its calls' first
    arguments (a mesh, or a field's values)."""
    calls = []
    target = getattr(module, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return target(first, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_lambda1_assembles_through_the_module(sphere3, monkeypatch):
    # the tracer times the assembly by replacing umbilic.spectral.build_laplace;
    # if lambda1 bound it privately, spectral.build_laplace_s would read 0
    from umbilic import spectral

    calls = counting(spectral, "build_laplace", monkeypatch)
    spectral.lambda1(sphere3)
    assert len(calls) == 1 and calls[0] is sphere3


def test_pinching_integrates_through_the_module(sphere3, monkeypatch):
    # the tracer counts the weighted integrals by replacing
    # umbilic.fields.integrate; if pinching bound it privately, fields.calls
    # would miss the spectral condition's integral of H and the trace's
    from umbilic import fields, pinching

    calls = counting(fields, "integrate", monkeypatch)
    constants = pinching.PinchingConstants(alpha=0.5, epsilon=0.2)
    report = pinching.verify_theorem(sphere3, constants)
    assert report.roth is not None and report.trace is not None
    assert len(calls) == 2 and calls[0] is calls[1]   # both integrate H of |M| = 1
    pinching.verify_theorem(sphere3, constants, with_trace=False)
    assert len(calls) == 3


def test_verify_traces_through_the_module(sphere3, monkeypatch):
    # the tracer times the proof trace and the mu fit by replacing
    # umbilic.pinching.proof_trace and umbilic.pinching.fit_umbilical_mu; if
    # verify_theorem bound either privately, pinching.proof_trace_s and
    # pinching.mu_fit_s would read 0
    from umbilic import pinching

    traced = counting(pinching, "proof_trace", monkeypatch)
    fitted = counting(pinching, "fit_umbilical_mu", monkeypatch)
    constants = pinching.PinchingConstants(alpha=0.5, epsilon=0.2)
    assert pinching.verify_theorem(sphere3, constants).trace is not None
    assert len(traced) == 1 and len(fitted) == 1
    pinching.verify_theorem(sphere3, constants, with_trace=False)
    assert len(traced) == 1 and len(fitted) == 1


def test_fit_runs_whole_through_the_traced_names(tmp_path, sphere3, monkeypatch):
    # the tracer times the jet fit by replacing umbilic.diffgeo.estimate_geometry
    # (analyze) and umbilic.pinching.estimate_geometry (verify_theorem): one
    # call per pass.  In analyze the span holds the whole two-process fit,
    # the wait for the child included; verify_theorem makes its one call in
    # the forked child that fits beside lambda1, so that call is logged to a
    # file by the mesh's id, which the fork keeps
    from umbilic import cli, diffgeo, pinching
    from umbilic.mesh import save_mesh

    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 256)   # 642 vertices: forked
    mesh_path = tmp_path / "s3.off"
    save_mesh(sphere3, mesh_path)
    analyzed = counting(diffgeo, "estimate_geometry", monkeypatch)
    args = ["analyze", "--mesh", str(mesh_path), "--json-out", str(tmp_path / "s3.json")]
    assert cli.main(args) == 0
    assert len(analyzed) == 1

    log, fit = tmp_path / "verified", pinching.estimate_geometry

    def logged(mesh):
        with open(log, "a") as fh:
            fh.write(f"{id(mesh)}\n")
        return fit(mesh)

    monkeypatch.setattr(pinching, "estimate_geometry", logged)
    pinching.verify_theorem(sphere3, pinching.PinchingConstants(alpha=0.5, epsilon=0.2))
    assert log.read_text().split() == [str(id(sphere3))]
