import dataclasses
import io
import os
import pickle

import numpy as np
import pytest

import umbilic.mesh as mesh_module
from umbilic.diffgeo import FIT_BLOCK
from umbilic.mesh import (
    Mesh,
    MeshFormatError,
    load_mesh,
    save_mesh,
    validate_mesh,
    write_rows,
)
from umbilic.spectral import ConvergenceError
from umbilic.surfgen import PerturbedSphere, generate


def test_load_off_tetrahedron(tetra):
    mesh = load_mesh(tetra)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 4
    assert validate_mesh(mesh).all_passed


def test_load_off_icosahedron(tmp_path):
    path = tmp_path / "ico.off"
    save_mesh(generate(PerturbedSphere(1.0), 0), path)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 12
    assert mesh.n_faces == 20
    assert mesh.one_ring_matrix.nnz == 60
    assert mesh.euler_characteristic == 2


def test_off_roundtrip_exact(tmp_path, sphere3):
    path = tmp_path / "s3.off"
    save_mesh(sphere3, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, sphere3.vertices)
    assert np.array_equal(back.faces, sphere3.faces)


def test_obj_roundtrip(tmp_path, sphere3):
    path = tmp_path / "s3.obj"
    save_mesh(sphere3, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, sphere3.vertices)
    assert np.array_equal(back.faces, sphere3.faces)


def test_save_mesh_bytes(tmp_path, monkeypatch):
    # the writers against the line formulas they replaced; a face index
    # above 2**31 needs a stand-in, since a Mesh checks it against V
    from types import SimpleNamespace

    values = [
        -0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308, 2.5e-07, 123456789.0,
        -1e-300, 0.1,
    ]
    vertices = np.resize(np.array(values), (5, 3))
    faces = np.array([[0, 1, 2], [2**31 + 5, 2**40, 0], [4, 3, 2**63 - 2]])
    mesh = SimpleNamespace(vertices=vertices, faces=faces, n_vertices=5, n_faces=3)
    off = ["OFF", "5 3 9"]   # no two faces share an edge
    off += [f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in vertices]
    off += [f"3 {i} {j} {k}" for i, j, k in faces]
    obj = [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in vertices]
    obj += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in faces]
    for block in (mesh_module.TEXT_BLOCK, 1, 2):
        monkeypatch.setattr(mesh_module, "TEXT_BLOCK", block)
        for name, lines in [("m.off", off), ("m.obj", obj)]:
            save_mesh(mesh, tmp_path / name)
            expected = ("\n".join(lines) + "\n").encode("ascii")
            assert (tmp_path / name).read_bytes() == expected, (name, block)


@pytest.mark.parametrize("name", ["sphere3", "holed", "three_sheet", "pinched"])
def test_save_off_counts_edges_without_the_table(tmp_path, sphere3, torus, name):
    # the header's edge count is the reference's on a closed, an open and
    # two non-manifold meshes, and saving leaves no edge table cached
    mesh = topology_cases(sphere3, torus)[name]
    mesh = Mesh(mesh.vertices, mesh.faces)   # a fresh mesh: nothing cached
    save_mesh(mesh, tmp_path / "m.off")
    assert "_edge_table" not in mesh.__dict__
    edges = reference_topology(mesh)[0]
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} {len(edges)}"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"3 {i} {j} {k}" for i, j, k in mesh.faces.tolist()]
    assert (tmp_path / "m.off").read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_save_mesh_bytes_on_two_processes(tmp_path, sphere4, forked):
    # 2,562 vertex and 5,120 face rows are 3 and 5 default blocks, so a
    # forked child formats the second half of each table
    vertices = [" ".join(repr(float(x)) for x in row) for row in sphere4.vertices]
    faces = sphere4.faces.tolist()
    off = ["OFF", f"{sphere4.n_vertices} {sphere4.n_faces} {3 * sphere4.n_faces // 2}"]
    off += vertices + [f"3 {i} {j} {k}" for i, j, k in faces]
    obj = [f"v {line}" for line in vertices]
    obj += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in faces]
    for name, lines in [("s4.off", off), ("s4.obj", obj)]:
        save_mesh(sphere4, tmp_path / name)
        expected = ("\n".join(lines) + "\n").encode("ascii")
        assert (tmp_path / name).read_bytes() == expected, name
    assert len(forked) == 4


def test_write_rows_child_failure_raises(monkeypatch, forked, failing_column):
    # 20 rows in blocks of 4: this process writes rows 0-9, the child 10-19
    # and dies on row 12
    monkeypatch.setattr(mesh_module, "TEXT_BLOCK", 4)
    out = io.StringIO()
    with pytest.raises(OSError, match="exited with status 1"):
        write_rows(out, [np.arange(20), failing_column(20, 12, dies=True)])
    assert out.getvalue() == "".join(f"{i} {i}\n" for i in range(10))
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_rows_child_exception_raised_here(monkeypatch, forked, failing_column):
    # the child's own exception comes back, type and message, not an OSError;
    # this process writes rows 0-9
    monkeypatch.setattr(mesh_module, "TEXT_BLOCK", 4)
    out = io.StringIO()
    with pytest.raises(RuntimeError, match="^no repr for row 12$"):
        write_rows(out, [np.arange(20), failing_column(20, 12)])
    assert out.getvalue() == "".join(f"{i} {i}\n" for i in range(10))
    assert len(forked) == 1


def test_write_rows_child_exception_after_buffers(monkeypatch, forked, failing_column):
    # 40 rows in blocks of 4: the child writes rows 20-27 to the spool, then
    # raises on row 30; its exception replaces those rows there
    monkeypatch.setattr(mesh_module, "TEXT_BLOCK", 4)
    out = io.StringIO()
    with pytest.raises(RuntimeError, match="^no repr for row 30$"):
        write_rows(out, [np.arange(40), failing_column(40, 30)])
    assert out.getvalue() == "".join(f"{i} {i}\n" for i in range(20))
    assert len(forked) == 1


def test_fork_halves_child_convergence_error_whole(forked):
    def child_half(start, stop):
        raise ConvergenceError("no certified pair", 0.1 + 0.2, 1e-300, 96)

    with pytest.raises(ConvergenceError, match="^no certified pair$") as error:
        mesh_module._fork_halves(2, 1, child_half, lambda start, stop: None, None)
    best = error.value.best_lambda1, error.value.best_residual, error.value.iterations
    assert best == (0.1 + 0.2, 1e-300, 96)
    assert len(forked) == 1


class TwoArgError(Exception):
    """Pickles, but its pickle calls __init__ with the message alone."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_fork_halves_child_exception_that_does_not_pickle(forked):
    # a class defined in a function cannot be pickled; its type name and
    # message still come back, as an OSError like a dead child's
    class LocalError(Exception):
        pass

    def child_half(start, stop):
        raise LocalError("no pickle")

    with pytest.raises(OSError, match="^forked child process raised LocalError: no pickle$"):
        mesh_module._fork_halves(2, 1, child_half, lambda start, stop: None, None)
    assert len(forked) == 1


def test_fork_halves_child_exception_that_does_not_unpickle(forked):
    # TwoArgError pickles, but loading it would raise TypeError here
    def child_half(start, stop):
        raise TwoArgError(1, 2)

    with pytest.raises(OSError, match="^forked child process raised TwoArgError: 1 and 2$"):
        mesh_module._fork_halves(2, 1, child_half, lambda start, stop: None, None)
    assert len(forked) == 1


@pytest.mark.parametrize("n, block", [
    (0, mesh_module.TEXT_BLOCK),
    (mesh_module.TEXT_BLOCK, mesh_module.TEXT_BLOCK),
    (mesh_module.TEXT_BLOCK + 1, mesh_module.TEXT_BLOCK),
    (10_242, FIT_BLOCK),   # the vertices of the s5, s6 and s7 icospheres
    (40_962, FIT_BLOCK),
    (163_842, FIT_BLOCK),
    (163_842, mesh_module.TEXT_BLOCK),   # the s7 vertex and face rows
    (327_680, mesh_module.TEXT_BLOCK),
])
def test_fork_halves_split_rule(n, block, forked):
    ran = []

    def child_half(start, stop):   # its range can only come back as an exception
        if (start, stop) != (n // 2, n):
            raise AssertionError(f"child ran [{start}, {stop})")
        return ()

    def split():
        ran.clear()
        mesh_module._fork_halves(
            n, block, child_half,
            lambda start, stop: ran.append((start, stop)),
            lambda spool, mid: ran.append(mid),
        )
        return ran

    if n <= block:
        assert split() == [(0, n)] and not forked
    else:
        assert split() == [(0, n // 2), n // 2] and len(forked) == 1
    # inside a forked child the helper forks nothing and runs [0, n) itself;
    # the child's copy of `forked` would hold any pid it forked
    forked.clear()
    _, in_child = mesh_module._fork_child(
        lambda: [pickle.dumps((split(), forked))], lambda: None, pickle.load)
    assert in_child == ([(0, n)], []) and len(forked) == 1


def test_write_rows_reaps_child_when_write_fails(monkeypatch, forked):
    class FullFile(io.StringIO):
        def write(self, text):   # the second block fails
            if self.tell():
                raise OSError("disk full")
            return super().write(text)

    monkeypatch.setattr(mesh_module, "TEXT_BLOCK", 4)
    with pytest.raises(OSError, match="disk full"):
        write_rows(FullFile(), [np.arange(20), np.arange(20)])
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_rows_forks_from_two_blocks(monkeypatch, forked):
    monkeypatch.setattr(mesh_module, "TEXT_BLOCK", 4)
    for n, forks in [(0, 0), (4, 0), (5, 1), (8, 2), (9, 3)]:
        out = io.StringIO()
        write_rows(out, [np.arange(n), -np.arange(n)], sep=",")
        assert out.getvalue() == "".join(f"{i},{-i}\n" for i in range(n)), n
        assert len(forked) == forks, n


def assert_blocks_skip_line_rules(path, mesh, monkeypatch):
    # a well-formed file converts a block at a time, whatever the block size
    def unexpected(*args, **kwargs):
        raise AssertionError("line rule used on a well-formed block")

    for rule in ("_vertex_lines", "_off_face_lines", "_obj_face_lines"):
        monkeypatch.setattr(mesh_module, rule, unexpected)
    for block in (mesh_module.TEXT_BLOCK, 1, 100):
        monkeypatch.setattr(mesh_module, "TEXT_BLOCK", block)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)


def test_off_blocks_skip_line_parsers(tmp_path, sphere3, monkeypatch):
    # colour columns after the numbers a line rule reads: RGBA on each
    # vertex line, RGB on each face line
    path = tmp_path / "s3.off"
    save_mesh(sphere3, path)
    head, counts, *body = path.read_text().splitlines()
    body = [line + (" 0.5 0.5 1 1" if k < sphere3.n_vertices else " 255 0 0")
            for k, line in enumerate(body)]
    path.write_text("\n".join([head, counts, *body]) + "\n")
    assert_blocks_skip_line_rules(path, sphere3, monkeypatch)


def test_obj_blocks_skip_line_rules(tmp_path, sphere3, monkeypatch):
    path = tmp_path / "s3.obj"
    save_mesh(sphere3, path)
    assert_blocks_skip_line_rules(path, sphere3, monkeypatch)


@pytest.mark.parametrize("name, text, error, message", [
    # the first bad record in file order, though the sections interleave
    pytest.param("m.obj", "v 0 0 0\nf 1 2\nv 1\n", MeshFormatError,
                 "only triangle faces supported, got 'f 1 2'", id="obj-face-first"),
    pytest.param("m.obj", "v 0 0 0\nv 1\nf 1 2\n", MeshFormatError,
                 "bad OBJ vertex line 'v 1'", id="obj-vertex-first"),
    # an OBJ index beyond int64 raises only when every record is well formed
    pytest.param("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\nf 1 2\n",
                 MeshFormatError, "only triangle faces supported, got 'f 1 2'",
                 id="obj-overflow-then-bad-face"),
    pytest.param("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\nf 0 1 2\n",
                 IndexError,
                 "OBJ face index out of range: Python int too large to convert to C long",
                 id="obj-overflow-before-range"),
    # a vertex line with one number is short, not broadcast to three
    pytest.param("m.off", "OFF\n3 1 0\n0 0 0\n1\n0 1 0\n3 0 1 2\n", MeshFormatError,
                 "bad OFF vertex line '1'", id="off-one-number"),
    # an OFF index beyond int64 raises at its line
    pytest.param("m.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n3 0 1\n",
                 IndexError,
                 "OFF face index out of range: Python int too large to convert to C long",
                 id="off-overflow-then-bad-face"),
])
def test_first_bad_line_named(tmp_path, name, text, error, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error) as raised:
        load_mesh(path)
    assert str(raised.value) == message


def test_obj_ignores_other_records(tmp_path):
    path = tmp_path / "mix.obj"
    path.write_text(
        "# comment\nvn 0 0 1\nvt 0 0\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f 1/1/1 2/2/2 3/3/3\nf 1 4 2\nf 1 3 4\nf 2 4 3\n"
        "usemtl whatever\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 4


@pytest.mark.parametrize("bad_index", [0, 5])
def test_obj_index_out_of_range(tmp_path, bad_index):
    path = tmp_path / "bad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        f"f 1 2 3\nf 1 4 2\nf 1 3 4\nf 2 4 {bad_index}\n"
    )
    with pytest.raises(IndexError):
        load_mesh(path)


def test_off_face_index_out_of_range(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
    with pytest.raises(IndexError):
        load_mesh(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "NOFF\n1 0 0\n0 0 0\n",
        "OFF\n2 1 0\n0 0 0\n",                      # truncated vertices
        "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n",  # quad face
        "OFF\n3 1 3\n0 0 x\n1 0 0\n0 1 0\n3 0 1 2\n",    # bad float
    ],
)
def test_off_parse_failures(tmp_path, text):
    path = tmp_path / "broken.off"
    path.write_text(text)
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_unknown_format(tmp_path):
    path = tmp_path / "mesh.stl"
    path.write_text("whatever")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_validate_icosphere_all_pass(sphere3):
    report = validate_mesh(sphere3)
    assert report.closed and report.oriented and report.connected and report.outward
    assert report.manifold and report.nonmanifold_vertex is None
    assert report.min_face_area > report.degenerate_threshold
    assert report.all_passed


def test_validation_cached_on_mesh(sphere3):
    holed = Mesh(sphere3.vertices, sphere3.faces[1:])
    first = validate_mesh(holed)
    assert validate_mesh(holed) is first
    # a new Mesh over the same arrays validates afresh, to an equal report
    again = Mesh(sphere3.vertices, sphere3.faces[1:])
    assert validate_mesh(again) is not first
    assert validate_mesh(again) == first


def test_validate_open_mesh(sphere3):
    holed = Mesh(sphere3.vertices, sphere3.faces[1:])
    report = validate_mesh(holed)
    assert not report.closed
    assert not report.all_passed


def test_validate_disconnected(sphere3):
    n = sphere3.n_vertices
    verts = np.vstack([sphere3.vertices, sphere3.vertices + [10.0, 0, 0]])
    faces = np.vstack([sphere3.faces, sphere3.faces + n])
    report = validate_mesh(Mesh(verts, faces))
    assert report.closed and report.oriented
    assert not report.connected


def test_validate_flipped_face(sphere3):
    faces = sphere3.faces.copy()
    faces[0] = faces[0, ::-1]
    report = validate_mesh(Mesh(sphere3.vertices, faces))
    assert not report.oriented
    # a repeated directed edge leaves the fans untraced
    assert report.manifold is None and report.nonmanifold_vertex is None


# far from the origin the sum of c0 . (c1 x c2) / 6 cancels: it reads -49.8
# for sphere3 shifted this far (true 4.15), and +88.4 for its reversed copy
FAR_SHIFT = np.array([1e6, -7e5, 3e5])


@pytest.mark.parametrize("shift", [np.zeros(3), FAR_SHIFT], ids=["origin", "far"])
def test_validate_inward_orientation(sphere3, shift):
    # every face reversed: consistently oriented, but about the inward normal
    mesh = Mesh(sphere3.vertices + shift, sphere3.faces[:, ::-1])
    report = validate_mesh(mesh)
    assert mesh.enclosed_volume < 0
    assert report.closed and report.oriented and report.connected and report.manifold
    assert report.min_face_area > report.degenerate_threshold
    assert not report.outward and not report.all_passed
    assert report.failure.startswith(
        "mesh validation failed: closed=True oriented=True connected=True outward=False")


def test_validate_pinched_vertex(sphere3):
    # two fans meet at vertex 0; every other check passes
    mesh = pinched_sphere(sphere3)
    report = validate_mesh(mesh)
    assert mesh.euler_characteristic == 1
    assert report.closed and report.oriented and report.connected
    assert report.min_face_area > report.degenerate_threshold
    assert not report.manifold and report.nonmanifold_vertex == 0
    assert not report.all_passed


def test_validation_failure_message(sphere3):
    assert validate_mesh(sphere3).failure is None
    failure = validate_mesh(pinched_sphere(sphere3)).failure
    assert failure.startswith("mesh validation failed: closed=True oriented=True")
    assert failure.endswith("manifold=False (vertex 0)")


def test_validate_degenerate_face(sphere3):
    verts = sphere3.vertices.copy()
    # collapse one vertex onto a neighbor: topology intact, two zero-area faces
    j = sphere3.one_ring_matrix.indices[0]   # the first neighbour of vertex 0
    verts[0] = verts[j]
    report = validate_mesh(Mesh(verts, sphere3.faces))
    assert report.closed and report.oriented and report.connected
    assert report.min_face_area <= report.degenerate_threshold
    assert not report.all_passed


def test_measures_unit_sphere(sphere5):
    assert abs(sphere5.area - 4 * np.pi) / (4 * np.pi) < 1e-3
    assert np.linalg.norm(sphere5.barycenter) < 1e-9
    assert abs(sphere5.enclosed_volume - 4 * np.pi / 3) / (4 * np.pi / 3) < 1e-3


def test_measures_match_face_formulas():
    # the area-weighted face-centroid mean and sum c0 . (c1 x c2) / 6, which
    # the vertex-weighted barycenter and the edge-cross volume regroup; a
    # degree-1 perturbation moves the barycenter off the origin
    mesh = generate(PerturbedSphere(1.0, 0.3, 1, 0), 3)
    c = mesh.vertices[mesh.faces]
    barycenter = (mesh.face_areas[:, None] * c.mean(axis=1)).sum(axis=0) / mesh.area
    volume = np.sum(np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2])) / 6.0)
    assert np.linalg.norm(barycenter) > 1e-3
    assert np.abs(mesh.barycenter - barycenter).max() <= 1e-14
    assert abs(mesh.enclosed_volume - volume) <= 1e-14 * volume


def test_validation_reads_face_cross_once(sphere3, monkeypatch):
    # the areas and the volume come from one face pass, cached on the mesh
    reads = []
    cross = Mesh.face_cross

    def counted(mesh):
        reads.append(mesh)
        return cross.fget(mesh)

    monkeypatch.setattr(Mesh, "face_cross", property(counted))
    mesh = Mesh(sphere3.vertices, sphere3.faces)
    assert validate_mesh(mesh).all_passed
    assert (mesh.area, mesh.enclosed_volume) == (sphere3.area, sphere3.enclosed_volume)
    assert len(reads) == 1 and reads[0] is mesh


def test_barycenter_translation(sphere4):
    shifted = Mesh(sphere4.vertices + [3.0, 0.0, 0.0], sphere4.faces)
    assert np.allclose(shifted.barycenter, [3.0, 0.0, 0.0], atol=1e-6)


def test_far_translation_passes_validation(sphere3):
    shifted = Mesh(sphere3.vertices + FAR_SHIFT, sphere3.faces)
    assert validate_mesh(shifted).all_passed
    volume = sphere3.enclosed_volume
    assert abs(shifted.enclosed_volume - volume) <= 1e-9 * volume
    assert np.abs(shifted.barycenter - FAR_SHIFT).max() <= 1e-6


def test_exact_scaling_laws(sphere4):
    base, doubled = sphere4, Mesh(sphere4.vertices * 2.0, sphere4.faces)
    assert abs(doubled.area - 4.0 * base.area) <= 1e-12 * doubled.area
    assert (
        abs(doubled.enclosed_volume - 8.0 * base.enclosed_volume)
        <= 1e-12 * doubled.enclosed_volume
    )
    assert np.allclose(doubled.barycenter, 2.0 * base.barycenter, atol=1e-14)


def test_rigid_motion_invariance(sphere4):
    # a fixed rotation and translation
    angle = 0.7
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    base = sphere4
    after = Mesh(sphere4.vertices @ rot.T + [0.3, -1.2, 2.0], sphere4.faces)
    assert abs(after.area - base.area) <= 1e-12 * base.area
    assert abs(after.enclosed_volume - base.enclosed_volume) <= 1e-12 * base.enclosed_volume
    assert np.allclose(
        after.barycenter, rot @ base.barycenter + [0.3, -1.2, 2.0], atol=1e-12
    )


def test_euler_characteristic_genus0(sphere3, sphere4, ellipsoid4, perturbed4):
    for mesh in (sphere3, sphere4, ellipsoid4, perturbed4):
        assert mesh.euler_characteristic == 2


def test_vertex_areas_partition_area(sphere4):
    assert (
        abs(sphere4.vertex_areas.sum() - sphere4.face_areas.sum())
        <= 1e-12 * sphere4.face_areas.sum()
    )
    assert np.all(sphere4.vertex_areas > 0)


def test_constructor_rejects_bad_faces():
    verts = np.zeros((3, 3))
    with pytest.raises(IndexError):
        Mesh(verts, [[0, 1, 3]])
    with pytest.raises(ValueError):
        Mesh([[0, 0]], [[0, 0, 0]])


def test_mesh_copies_its_inputs(sphere3):
    # a view made before construction must move neither the mesh nor its caches
    verts, faces = sphere3.vertices.copy(), sphere3.faces.copy()
    vert_view, face_view = verts.view(), faces.view()
    mesh = Mesh(verts, faces)
    area = mesh.area
    assert verts.flags.writeable and faces.flags.writeable
    vert_view *= 2.0
    face_view[0] = face_view[1]
    assert np.array_equal(mesh.vertices, sphere3.vertices)
    assert np.array_equal(mesh.faces, sphere3.faces)
    assert mesh.area == area == sphere3.area


def test_mesh_arrays_immutable(sphere3):
    with pytest.raises(ValueError):
        sphere3.vertices[0, 0] = 99.0
    with pytest.raises(ValueError):
        sphere3.faces[0, 0] = 0


# -- edge table against the pairwise constructions it replaced --------------------


def reference_topology(mesh):
    """Edges, validation flags and one-ring built row-wise, without edge keys."""
    from scipy import sparse
    from scipy.sparse import csgraph

    f = mesh.faces
    F, V = len(f), mesh.n_vertices
    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    und = np.sort(directed, axis=1)
    edges, und_counts = np.unique(und, axis=0, return_counts=True)
    closed = bool(len(und_counts) > 0 and np.all(und_counts == 2))
    _, dir_counts = np.unique(directed, axis=0, return_counts=True)
    simple = bool(np.all(dir_counts == 1))
    oriented = closed and simple

    owner = np.tile(np.arange(F), 3)
    order = np.lexsort((und[:, 1], und[:, 0]))
    und_sorted, owner_sorted = und[order], owner[order]
    same = np.all(und_sorted[1:] == und_sorted[:-1], axis=1)
    a, b = owner_sorted[:-1][same], owner_sorted[1:][same]
    g = sparse.csr_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(F, F))
    connected = bool(F > 0 and csgraph.connected_components(g, directed=False)[0] == 1)

    i, j = f[:, [0, 1, 2]].ravel(), f[:, [1, 2, 0]].ravel()
    adj = sparse.csr_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(V, V))
    adj = adj + adj.T
    adj.data[:] = 1
    # fans, traced only when no directed edge repeats: the faces at v,
    # joined when they share an edge (v, w)
    rims = [[] for _ in range(V)]
    for face in f.tolist():
        for v in face:
            rims[v].append(set(face) - {v})
    bad = []
    for v, at_v in enumerate(rims):
        groups = []
        for rim in at_v:
            touching = [g for g in groups if g & rim]
            groups = [g for g in groups if not g & rim] + [rim.union(*touching)]
        if len(groups) != 1:
            bad.append(v)

    # the signed volume as a sum of 3x3 determinants
    outward = bool(np.linalg.det(mesh.vertices[f]).sum() > 0)

    areas = mesh.face_areas
    manifold = (not bad) if simple else None
    first_bad = bad[0] if bad and simple else None
    overflowed = [k for k, area in enumerate(areas.tolist()) if not np.isfinite(area)]
    fields = (
        closed, oriented, connected, outward,
        float(areas.min()), 1e-14 * float(areas.mean()),
        manifold, first_bad, overflowed[0] if overflowed else None,
    )
    return edges, fields, adj


def pinched_sphere(sphere3):
    """sphere3 with two antipodal vertices merged into vertex 0 (chi = 1)."""
    b = int(np.argmin(sphere3.vertices @ sphere3.vertices[0]))
    faces = np.where(sphere3.faces == b, 0, sphere3.faces)
    faces = faces - (faces > b)
    return Mesh(np.delete(sphere3.vertices, b, axis=0), faces)


def three_sheet_mesh():
    """Tetrahedron plus a fin face: edge (0, 1) is shared by three faces."""
    verts = [[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1], [0, 0, 3]]
    faces = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2], [0, 1, 4]]
    return Mesh(np.array(verts, dtype=float), faces)


def bowtie_mesh():
    """Two tetrahedra sharing only vertex 0; the second is a translated copy."""
    tetra = np.array([[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]], dtype=float)
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])   # outward
    # the copy's vertex 3 lands on vertex 0; its vertices 0, 1, 2 are 4, 5, 6
    copy = np.array([4, 5, 6, 0])[faces]
    return Mesh(np.vstack([tetra, tetra[:3] + tetra[0] - tetra[3]]), np.vstack([faces, copy]))


def topology_cases(sphere3, torus):
    n = sphere3.n_vertices
    flipped = sphere3.faces.copy()
    flipped[0] = flipped[0, ::-1]
    return {
        "sphere3": sphere3,
        "torus": torus,
        "holed": Mesh(sphere3.vertices, sphere3.faces[1:]),
        "flipped": Mesh(sphere3.vertices, flipped),
        "reversed": Mesh(sphere3.vertices, sphere3.faces[:, ::-1]),
        "two_spheres": Mesh(
            np.vstack([sphere3.vertices, sphere3.vertices + [10.0, 0, 0]]),
            np.vstack([sphere3.faces, sphere3.faces + n]),
        ),
        "three_sheet": three_sheet_mesh(),
        "pinched": pinched_sphere(sphere3),
        # a vertex in no face has no fan
        "unreferenced": Mesh(np.vstack([sphere3.vertices, [[0.0, 0.0, 0.0]]]), sphere3.faces),
        # finite edge cross products whose norms overflow: inf areas (at
        # 1e200 the cross products overflow too, and the areas read nan)
        "overflow": Mesh(sphere3.vertices * 1e100, sphere3.faces),
        # two components joined at one vertex: connected only through its
        # one-ring, not through shared edges
        "bowtie": bowtie_mesh(),
    }


def test_edge_table_matches_reference(sphere3, torus):
    for name, mesh in topology_cases(sphere3, torus).items():
        edges, fields, adj = reference_topology(mesh)
        assert mesh.euler_characteristic == mesh.n_vertices - len(edges) + mesh.n_faces
        assert dataclasses.astuple(validate_mesh(mesh)) == fields, name
        ring = mesh.one_ring_matrix
        assert np.array_equal(ring.indptr, adj.indptr), name
        assert np.array_equal(ring.indices, adj.indices), name
        assert ring.dtype == adj.dtype and np.all(ring.data == 1), name
    # the fin edge is counted three times, so the reference cases include
    # a non-manifold edge as well as a hole, a flip, an inward orientation,
    # two components, a pinched vertex, a vertex in no face and overflowing
    # face areas
    assert not validate_mesh(three_sheet_mesh()).closed
    assert three_sheet_mesh().euler_characteristic == 5 - 8 + 5
