"""Shared fixtures: cached meshes, geometries and eigenvalues.

The expensive objects (subdivision-5 sphere, its curvature record and its
first eigenvalue) are session-scoped so the whole suite pays for them once.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from umbilic.diffgeo import estimate_geometry
from umbilic.mesh import Mesh
from umbilic.spectral import lambda1
from umbilic.surfgen import (
    Ellipsoid,
    PerturbedSphere,
    generate,
    surface_point,
    unit_icosphere,
)

# property tests draw the same few examples on every run, with no per-example
# deadline, so the suite stays reproducible and quick on a slow host
settings.register_profile(
    "umbilic", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("umbilic")


def jittered(surface, subdivision: int, seed: int) -> Mesh:
    """`generate(surface, subdivision)` with irregular triangles.

    The icosphere's faces are kept.  Each unit direction moves tangentially,
    in a random direction, by up to 0.45 of the mean edge length, and is
    renormalised before `surface_point` maps it onto the surface.
    """
    dirs, faces = unit_icosphere(subdivision)
    rng = np.random.default_rng(seed)
    step = rng.normal(size=dirs.shape)
    step -= np.sum(step * dirs, axis=1, keepdims=True) * dirs
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    edge = np.linalg.norm(dirs[faces] - dirs[np.roll(faces, 1, axis=1)], axis=-1).mean()
    moved = dirs + 0.45 * edge * rng.uniform(size=(len(dirs), 1)) * step
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    return Mesh(surface_point(surface, moved), faces)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process: {'running' if pid == 0 else pid}")


@pytest.fixture
def forked(monkeypatch):
    """The pids of the child processes `os.fork` makes during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


class _Cell:
    """A table cell whose repr fails from row `bad` on.

    It raises RuntimeError, or with `dies` it ends a forked child's process
    with status 1, as a crash would (in the test's own process it raises).
    """

    def __init__(self, row, bad, dies):
        self.row, self.bad, self.dies = row, bad, dies
        self.owner = os.getpid()

    def __repr__(self):
        if self.row >= self.bad:
            if self.dies and os.getpid() != self.owner:
                os._exit(1)
            raise RuntimeError(f"no repr for row {self.row}")
        return str(self.row)


@pytest.fixture
def failing_column():
    """failing_column(n, bad, dies=False): n object cells whose repr fails
    from row `bad` on (see `_Cell`)."""
    def make(n, bad, dies=False):
        column = np.empty(n, dtype=object)
        column[:] = [_Cell(i, bad, dies) for i in range(n)]
        return column

    return make


TETRA_OFF = """OFF
4 4 6
1.0 1.0 1.0
-1.0 -1.0 1.0
-1.0 1.0 -1.0
1.0 -1.0 -1.0
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


@pytest.fixture(scope="session")
def tetra(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "tetra.off"
    path.write_text(TETRA_OFF)
    return path


@pytest.fixture(scope="session")
def sphere3():
    return generate(PerturbedSphere(1.0), 3)


@pytest.fixture(scope="session")
def sphere4():
    return generate(PerturbedSphere(1.0), 4)


@pytest.fixture(scope="session")
def sphere5():
    return generate(PerturbedSphere(1.0), 5)


@pytest.fixture(scope="session")
def ellipsoid4():
    return generate(Ellipsoid(2.0, 1.0, 1.0), 4)


@pytest.fixture(scope="session")
def perturbed4():
    return generate(PerturbedSphere(1.0, 0.01, 2, 0), 4)


@pytest.fixture(scope="session")
def geom_sphere4(sphere4):
    return estimate_geometry(sphere4)


@pytest.fixture(scope="session")
def geom_sphere5(sphere5):
    return estimate_geometry(sphere5)


@pytest.fixture(scope="session")
def geom_ellipsoid4(ellipsoid4):
    return estimate_geometry(ellipsoid4)


@pytest.fixture(scope="session")
def geom_perturbed4(perturbed4):
    return estimate_geometry(perturbed4)


@pytest.fixture(scope="session")
def lam1_sphere5(sphere5):
    return lambda1(sphere5)


@pytest.fixture(scope="session")
def lam1_sphere4(sphere4):
    return lambda1(sphere4)


def make_torus(big_radius=1.0, tube_radius=0.6, n_ring=48, n_tube=24) -> Mesh:
    """Closed oriented UV torus; tube_radius > big_radius/2 gives H < 0 inside."""
    phi = 2 * np.pi * np.arange(n_ring) / n_ring
    theta = 2 * np.pi * np.arange(n_tube) / n_tube
    P, T = np.meshgrid(phi, theta, indexing="ij")
    ring = big_radius + tube_radius * np.cos(T)
    verts = np.stack(
        [ring * np.cos(P), ring * np.sin(P), tube_radius * np.sin(T)], axis=-1
    ).reshape(-1, 3)

    def vid(i, j):
        return (i % n_ring) * n_tube + (j % n_tube)

    faces = []
    for i in range(n_ring):
        for j in range(n_tube):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append([a, b, c])
            faces.append([a, c, d])
    mesh = Mesh(verts, np.array(faces))
    # orient outward (positive enclosed volume)
    c = mesh.vertices[mesh.faces]
    vol = np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2])).sum() / 6.0
    if vol < 0:
        mesh = Mesh(verts, np.array(faces)[:, ::-1])
    return mesh


@pytest.fixture(scope="session")
def torus():
    return make_torus()
