"""Triangle mesh container, OFF/OBJ ingestion, validation and face geometry.

Meshes are closed oriented triangle surfaces embedded in R^3.  Vertices and
faces are immutable numpy arrays.  Combinatorics come from one keyed edge
table (see `edge_table`), built on first use and cached; the one-ring
adjacency and the cotangent stiffness are `Mesh.edge_matrix` matrices on
it.  Structural validation (closedness, orientability, connectivity,
vertex manifoldness, degeneracy) is a separate, reporting-only step so
that broken inputs can still be inspected.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import shutil
import signal
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# Faces with area below this multiple of the mean face area fail validation;
# curvature fitting divides by local area scales.
DEGENERATE_AREA_FACTOR = 1e-14

# lines of text parsed or written at a time (mesh files, the analyze
# table): bounds the Python strings and numbers alive at once in each
# process, the parent and the child that `write_rows` forks
TEXT_BLOCK = 1024


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed in the declared format."""


@dataclass(frozen=True)
class ValidationReport:
    """Topological health of a mesh; downstream modules require all_passed."""

    closed: bool
    oriented: bool
    connected: bool
    outward: bool                    # the signed enclosed volume is > 0
    min_face_area: float
    degenerate_threshold: float
    manifold: bool | None            # one fan per vertex; None if not traced
    nonmanifold_vertex: int | None   # the first vertex with no or several fans
    nonfinite_face: int | None       # the first face whose area is inf or nan

    @property
    def all_passed(self) -> bool:
        return (
            self.closed
            and self.oriented
            and self.connected
            and self.outward
            and self.manifold
            and self.nonfinite_face is None
            and self.min_face_area > self.degenerate_threshold
        )

    @property
    def failure(self) -> str | None:
        """The message naming the failed checks; None when all passed."""
        if self.all_passed:
            return None
        message = (
            f"mesh validation failed: closed={self.closed} "
            f"oriented={self.oriented} connected={self.connected} "
            f"outward={self.outward} min_face_area={self.min_face_area:g}"
        )
        if self.manifold is False:
            message += f" manifold=False (vertex {self.nonmanifold_vertex})"
        if self.nonfinite_face is not None:
            message += f" finite_areas=False (face {self.nonfinite_face})"
        return message


def _half_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head of the face edges 01, 12, 20, in three blocks of F."""
    return faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()


def edge_table(faces: np.ndarray, n_vertices: int):
    """(keys, inverse, counts) of the undirected edges of a (F, 3) face array.

    `keys` are the sorted unique min(i,j)*V + max(i,j); `inverse` maps each
    half-edge (in `_half_edges` order) to its key; `counts` is the number of
    half-edges per key (2 on a closed manifold).
    """
    i, j = _half_edges(faces)
    keys = np.minimum(i, j) * n_vertices + np.maximum(i, j)
    return np.unique(keys, return_inverse=True, return_counts=True)


class Mesh:
    """Closed oriented triangle surface in R^3.

    Parameters
    ----------
    vertices : (V, 3) float array
    faces : (F, 3) int array
        Vertex index triples, counterclockwise w.r.t. the outward normal.

    The arrays are copied and frozen; the edge table, adjacency, the
    validation report, the areas, the barycenter and the enclosed volume
    are computed on first use and cached.
    The per-face cross-product array is recomputed on each read.
    """

    def __init__(self, vertices, faces):
        v = np.array(vertices, dtype=np.float64, order="C")
        f = np.array(faces, dtype=np.int64, order="C")
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {f.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vertices contain non-finite coordinates")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise IndexError(
                f"face index out of range [0, {len(v)}): "
                f"min {f.min()}, max {f.max()}"
            )
        v.setflags(write=False)
        f.setflags(write=False)
        self.vertices = v
        self.faces = f

    # -- basic topology ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return edge_table(self.faces, self.n_vertices)

    @cached_property
    def _validation(self) -> ValidationReport:
        return _validation_report(self)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self._edge_table[0]) + self.n_faces

    @property
    def half_edges(self) -> tuple[np.ndarray, ...]:
        """(tail, head, opposite vertex, edge key index) of each `_half_edges` entry."""
        tail, head = _half_edges(self.faces)
        return tail, head, self.faces[:, [2, 0, 1]].T.ravel(), self._edge_table[1]

    def edge_matrix(self, values: np.ndarray) -> sparse.csr_matrix:
        """Symmetric csr matrix, values[k] at both ends of the edge with key index k."""
        V = self.n_vertices
        i, j = np.divmod(self._edge_table[0], V)
        # the sorted keys (i < j) are the upper triangle's rows, in order
        indptr = np.zeros(V + 1, dtype=np.int32)
        np.cumsum(np.bincount(i, minlength=V), out=indptr[1:])
        upper = sparse.csr_matrix((values, j.astype(np.int32), indptr), shape=(V, V))
        del i, j   # the sum below sets the memory peak
        return upper + upper.T

    @cached_property
    def one_ring_matrix(self) -> sparse.csr_matrix:
        """Vertex adjacency as a 0/1 csr matrix (no diagonal)."""
        return self.edge_matrix(np.ones(len(self._edge_table[0]), dtype=np.int8))

    # -- geometry ------------------------------------------------------------

    @property
    def face_cross(self) -> np.ndarray:
        """(F, 3) un-normalized face normals (cross of two edges)."""
        c = self.vertices[self.faces]
        return np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])

    @cached_property
    def face_areas(self) -> np.ndarray:
        # an area beyond the float range reads inf (or nan), with no
        # warning: validation names the face
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.5 * np.linalg.norm(self.face_cross, axis=1)

    @cached_property
    def vertex_areas(self) -> np.ndarray:
        """Barycentric vertex areas: one third of incident face areas.

        Positive, and an exact partition of the total area.
        """
        return self.vertex_sum(self.face_areas / 3.0)

    def vertex_sum(self, values: np.ndarray) -> np.ndarray:
        """Per vertex, the sum of a per-face value over the faces at its corners."""
        return np.bincount(self.faces.T.ravel(), np.tile(values, 3), self.n_vertices)

    @cached_property
    def area(self) -> float:
        """Total surface area, the sum of the face areas."""
        return float(np.sum(self.face_areas))

    @cached_property
    def barycenter(self) -> np.ndarray:
        """Surface-measure barycenter: the vertex-area-weighted mean vertex."""
        return self.vertex_areas @ self.vertices / self.area

    @cached_property
    def enclosed_volume(self) -> float:
        """Signed volume by the divergence theorem: > 0 when the faces turn
        counterclockwise about the outward normal."""
        # c0 . ((c1 - c0) x (c2 - c0)) equals c0 . (c1 x c2) but does not
        # cancel far from the origin; overflowing coordinates give inf or
        # nan, with no warning: validation names the overflowing face
        with np.errstate(over="ignore", invalid="ignore"):
            corner = self.vertices[self.faces[:, 0]]
            signed = np.einsum("ij,ij->i", corner, self.face_cross) / 6.0
            return float(np.sum(signed))


def load_mesh(path) -> Mesh:
    """Load an ASCII OFF or OBJ file; the format comes from the extension.

    Neither adjacency nor structural validation is computed here.
    """
    path = os.fspath(path)
    # opened first: a missing file reports as missing, whatever its extension
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    fmt = _format_of(path)
    try:
        return (_parse_off if fmt == "off" else _parse_obj)(text)
    except OverflowError as exc:   # a face index beyond int64
        raise IndexError(f"{fmt.upper()} face index out of range: {exc}") from exc


def _format_of(path: str) -> str:
    """The mesh format of `path`, "off" or "obj", read from its extension."""
    fmt = os.path.splitext(path)[1].lstrip(".").lower()
    if fmt not in ("off", "obj"):
        raise MeshFormatError(f"unsupported mesh format {fmt!r} (use off or obj)")
    return fmt


def _content_lines(text: str) -> list[str]:
    """The non-blank lines of `text`, stripped of '#' comments."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return list(filter(None, map(str.strip, lines)))


def _parse_off(text: str) -> Mesh:
    lines = _content_lines(text)
    if not lines:
        raise MeshFormatError("empty OFF file")
    header, body = lines[0], lines[1:]
    if header == "OFF":
        counts_line = body.pop(0) if body else None
    elif header.startswith("OFF"):
        # counts on the header line
        counts_line = header[3:].strip()
    else:
        raise MeshFormatError("missing OFF header")
    if not counts_line:
        raise MeshFormatError("missing OFF counts line")
    try:
        nv, nf = [int(tok) for tok in counts_line.split()[:2]]
    except ValueError as exc:
        raise MeshFormatError(f"bad OFF counts line {counts_line!r}") from exc
    # the counts are checked before they size an allocation
    if min(nv, nf) < 0 or nv + nf > len(body):
        raise MeshFormatError(
            f"OFF declares {nv} vertices and {nf} faces, but {len(body)} lines follow"
        )
    verts = np.empty((nv, 3))
    faces = np.empty((nf, 3), dtype=np.int64)
    # a block converts at once when it is well formed; otherwise the line
    # parsers raise on its first bad line
    for lo in range(0, nv, TEXT_BLOCK):
        block = body[lo:min(lo + TEXT_BLOCK, nv)]
        rows = _block_array(block, 3, np.float64)
        verts[lo:lo + TEXT_BLOCK] = _off_vertex_lines(block) if rows is None else rows
    for lo in range(0, nf, TEXT_BLOCK):
        block = body[nv + lo:nv + min(lo + TEXT_BLOCK, nf)]
        rows = _block_array(block, 4, np.int64)
        triangles = rows is not None and np.all(rows[:, 0] == 3)
        faces[lo:lo + TEXT_BLOCK] = rows[:, 1:] if triangles else _off_face_lines(block)
    return Mesh(verts, faces)


def _block_array(block: list[str], width: int, dtype) -> np.ndarray | None:
    """The (len(block), width) array of the lines' numbers, or None.

    numpy's C reader converts the block at once.  None when a line does
    not hold exactly `width` numbers or a token does not convert; the line
    parsers then name the line.  The reader takes fewer spellings than
    Python's `float()` and `int()` (no `1_0`, no `1.0` as an integer), so
    a line it rejects also goes to the line parsers, which decide it.
    """
    try:
        rows = np.loadtxt(block, dtype=dtype, ndmin=2)
    except (ValueError, OverflowError):
        return None
    return rows if rows.shape == (len(block), width) else None


def _off_vertex_lines(block: list[str]) -> np.ndarray:
    """OFF vertex lines parsed one at a time: the first 3 numbers of each."""
    verts = np.empty((len(block), 3))
    for k, line in enumerate(block):
        parts = line.split()
        if len(parts) < 3:
            raise MeshFormatError(f"bad OFF vertex line {line!r}")
        try:
            verts[k] = [float(p) for p in parts[:3]]
        except ValueError as exc:
            raise MeshFormatError(f"bad OFF vertex line {line!r}") from exc
    return verts


def _off_face_lines(block: list[str]) -> np.ndarray:
    """OFF face lines parsed one at a time: triangles only."""
    faces = np.empty((len(block), 3), dtype=np.int64)
    for k, line in enumerate(block):
        parts = line.split()
        try:
            cnt = int(parts[0])
            idx = [int(p) for p in parts[1:1 + cnt]]
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(f"bad OFF face line {line!r}") from exc
        if cnt != 3 or len(idx) != 3:
            raise MeshFormatError(f"only triangle faces supported, got {line!r}")
        faces[k] = idx
    return faces


def _parse_obj(text: str) -> Mesh:
    verts = []
    faces = []
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshFormatError(f"bad OBJ vertex line {line!r}")
            try:
                verts.append([float(p) for p in parts[1:4]])
            except ValueError as exc:
                raise MeshFormatError(f"bad OBJ vertex line {line!r}") from exc
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshFormatError(
                    f"only triangle faces supported, got {line!r}"
                )
            idx = []
            for tok in parts[1:]:
                try:
                    i = int(tok.split("/")[0])
                except ValueError as exc:
                    raise MeshFormatError(f"bad OBJ face line {line!r}") from exc
                idx.append(i)
            faces.append(idx)
        # all other record types ignored
    verts = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size and (faces.min() < 1 or faces.max() > len(verts)):
        raise IndexError(
            f"OBJ face index out of 1-based range [1, {len(verts)}]: "
            f"min {faces.min()}, max {faces.max()}"
        )
    return Mesh(verts, faces - 1)


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh as ASCII OFF or OBJ; the format comes from the extension.

    Coordinates are written as `repr(float)`, so a written file loads back
    to bitwise-equal arrays.  A write that fails leaves no file.
    """
    path = os.fspath(path)
    faces = mesh.faces
    if _format_of(path) == "off":
        head = f"OFF\n{mesh.n_vertices} {mesh.n_faces} {len(mesh._edge_table[0])}\n"
        v_prefix, f_prefix = "", "3 "
    else:
        head, v_prefix, f_prefix, faces = "", "v ", "f ", faces + 1
    with output_file(path) as fh:
        fh.write(head)
        write_rows(fh, mesh.vertices.T, prefix=v_prefix)
        write_rows(fh, faces.T, prefix=f_prefix)


@contextlib.contextmanager
def output_file(path):
    """The file at `path` opened for writing ASCII text.

    The file is removed again if the block raises: it only ever holds a
    complete result.
    """
    fh = open(path, "w", newline="", encoding="ascii")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(path)
        raise


def write_rows(fh, columns, prefix: str = "", sep: str = " ", end: str = "\n") -> None:
    """Write one line per row of two or more equal-length array `columns`.

    Each line is `prefix`, then the cells' `repr` joined by `sep`, then
    `end`.  Rows spanning two or more TEXT_BLOCKs are formatted on two
    processes (`_fork_halves`): this process writes the first half of the
    blocks (rounded up) to `fh` while a forked child formats the rest,
    which is then copied into `fh` in bounded chunks.
    """
    n = len(columns[0])
    mid = -(-n // (2 * TEXT_BLOCK)) * TEXT_BLOCK
    if mid >= n:
        fh.writelines(_row_blocks(columns, 0, n, prefix, sep, end))
        return

    def copy_back(spool):
        with io.TextIOWrapper(spool, encoding="utf-8", newline="") as text:
            shutil.copyfileobj(text, fh)

    _fork_halves(
        lambda: map(str.encode, _row_blocks(columns, mid, n, prefix, sep, end)),
        lambda: fh.writelines(_row_blocks(columns, 0, mid, prefix, sep, end)),
        copy_back,
    )


def _row_blocks(columns, start: int, stop: int, prefix: str, sep: str, end: str):
    """The text of rows [start, stop), TEXT_BLOCK rows at a time.

    `start` is a multiple of TEXT_BLOCK and `stop` is one or the row count,
    so every block ends by `stop`.
    """
    for lo in range(start, stop, TEXT_BLOCK):
        cells = zip(*(map(repr, c[lo:lo + TEXT_BLOCK].tolist()) for c in columns))
        yield prefix + (end + prefix).join(map(sep.join, cells)) + end


def _fork_halves(child_half, own_half, receive) -> None:
    """Run `child_half` in a forked child while `own_half()` runs here.

    `child_half()` returns an iterable of bytes-like buffers, which the
    child writes to an unlinked temporary file, the spool.  Once both
    halves are done, `receive(spool)`, rewound, reads them back here.
    The child is reaped whatever happens:
    - an exception the child raises is raised again here, with its type
      and message;
    - a child that dies (exits with no result) raises OSError;
    - if `own_half` raises, the child is killed and reaped and
      `own_half`'s exception propagates.
    The child leaves through `os._exit`: it never returns into the
    caller, runs no cleanup of this process's state and never flushes
    the stdio buffers it inherited.  `os.fork` makes this POSIX-only.
    """
    with tempfile.TemporaryFile() as spool:
        read_end, write_end = os.pipe()
        # the pipe carries the child's pickled exception, if it raises
        with open(read_end, "rb") as failure, open(write_end, "wb") as report:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    try:
                        for buffer in child_half():
                            spool.write(buffer)
                        spool.flush()
                    except BaseException as exc:   # raised again in the parent
                        report.write(pickle.dumps(exc))
                        report.flush()
                    status = 0
                finally:
                    os._exit(status)
            report.close()   # so the read below ends when the child exits
            try:
                own_half()
                raised = failure.read()
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if raised:
            raise pickle.loads(raised)
        if status:
            raise OSError(f"forked child process exited with status {status}")
        spool.seek(0)
        receive(spool)


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Check closedness, orientation (consistent and outward), connectivity,
    vertex fans and degeneracy.

    Reporting only: never raises on a broken mesh.  The report is computed
    on the first call and cached on the (immutable) mesh.
    """
    return mesh._validation


def _trace_fans(faces, inverse, counts, n_vertices) -> tuple[bool, int | None]:
    """(no directed edge repeats, first vertex whose faces are not one fan).

    If so, the half-edges h and t of an interior edge run opposite ways, and
    the corner at h's tail (`_half_edges` order) is followed around its vertex
    by the corner at t's head, (t + F) mod 3F.  Each cycle of this map, or
    path at a boundary, is a fan; otherwise the fans are not traced (None).
    """
    i, j = _half_edges(faces)
    C = len(i)
    h = np.arange(C)
    first = np.full(len(counts), C)
    np.minimum.at(first, inverse, h)
    last = np.zeros(len(counts), dtype=np.int64)
    np.maximum.at(last, inverse, h)
    inner = counts[inverse] == 2
    twin = (first[inverse] + last[inverse] - h)[inner]   # the other half-edge
    if np.any(counts > 2) or np.any(i[twin] != j[inner]):
        return False, None
    del j   # the graph passes below set the memory peak
    links = sparse.csr_matrix(
        (np.ones(len(twin), dtype=np.int8), (h[inner], (twin + len(faces)) % C)),
        shape=(C, C),
    )
    del h, inner, twin
    n_fans, fan = csgraph.connected_components(links, directed=False)
    fan_vertex = np.empty(n_fans, dtype=np.int64)
    fan_vertex[fan] = i
    bad = np.flatnonzero(np.bincount(fan_vertex, minlength=n_vertices) != 1)
    return True, int(bad[0]) if bad.size else None


def _validation_report(mesh: Mesh) -> ValidationReport:
    keys, inverse, counts = mesh._edge_table
    closed = bool(len(counts) > 0 and np.all(counts == 2))

    # Consistent orientation: every directed edge occurs exactly once, so the
    # two faces of each undirected edge traverse it in opposite directions.
    simple, bad_vertex = _trace_fans(mesh.faces, inverse, counts, mesh.n_vertices)
    oriented = closed and simple

    # Faces sharing an edge are linked through a graph node for that edge.
    F = mesh.n_faces
    n = F + len(keys)
    face_edge = sparse.csr_matrix(
        (np.ones(3 * F, dtype=np.int8), (np.tile(np.arange(F), 3), F + inverse)),
        shape=(n, n),
    )
    connected = bool(csgraph.connected_components(face_edge, directed=False)[0] == 1)

    areas = mesh.face_areas
    nonfinite = np.flatnonzero(~np.isfinite(areas))
    min_face_area = float(areas.min()) if len(areas) else 0.0
    mean_area = float(areas.mean()) if len(areas) else 0.0
    threshold = DEGENERATE_AREA_FACTOR * mean_area
    return ValidationReport(
        closed=closed,
        oriented=oriented,
        connected=connected,
        outward=mesh.enclosed_volume > 0,
        min_face_area=min_face_area,
        degenerate_threshold=threshold,
        manifold=bad_vertex is None if simple else None,
        nonmanifold_vertex=bad_vertex,
        nonfinite_face=int(nonfinite[0]) if nonfinite.size else None,
    )

