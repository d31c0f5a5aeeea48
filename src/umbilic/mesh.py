"""Triangle mesh container, OFF/OBJ ingestion, validation and face geometry.

Meshes are closed oriented triangle surfaces in R^3, read from OFF or OBJ
by one block reader (`load_mesh`, `_read_rows`).  Vertices and faces are
immutable numpy arrays.  Combinatorics come from one keyed edge table
(`edge_table`), built on first use and cached; the one-ring adjacency and
the cotangent stiffness are `Mesh.edge_matrix` matrices on it.  Structural
validation (closedness, orientability, connectivity, vertex manifoldness,
degeneracy) is reporting-only, so that broken inputs can still be inspected.
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
from functools import cached_property, partial

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# Faces with area below this multiple of the mean face area fail validation;
# curvature fitting divides by local area scales.
DEGENERATE_AREA_FACTOR = 1e-14

# lines of text converted (a mesh file section) or written (mesh files, the
# analyze table) at a time: bounds the Python strings alive at once in each
# process; rows beyond one block are written on two (`_fork_halves`)
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


def _edge_keys(i: np.ndarray, j: np.ndarray, n_vertices: int) -> np.ndarray:
    """The key min(i,j)*V + max(i,j) of each undirected edge (i, j)."""
    return np.minimum(i, j) * n_vertices + np.maximum(i, j)


def edge_vectors(vertices: np.ndarray, origin, i, j) -> tuple[np.ndarray, np.ndarray]:
    """(vertices[i] - vertices[origin], vertices[j] - vertices[origin]),
    each gathered and then subtracted in place."""
    corner = vertices[origin]
    e1 = vertices[i]
    e1 -= corner
    e2 = vertices[j]
    e2 -= corner
    return e1, e2


def row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two (n, 3) float arrays, row by row, bit for bit.

    Each column is np.cross's two products in its order, subtracted in
    place, with one (n,) scratch column where np.cross copies both inputs.
    """
    out = np.empty_like(a)
    scratch = np.empty(len(a))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[:, i], b[:, j], out=out[:, k])
        np.multiply(a[:, j], b[:, i], out=scratch)
        out[:, k] -= scratch
    return out


def edge_table(faces: np.ndarray, n_vertices: int):
    """(keys, inverse, counts) of the undirected edges of a (F, 3) face array.

    `keys` are the sorted unique `_edge_keys` of the half-edges; `inverse`
    maps each half-edge (in `_half_edges` order) to its key; `counts` is
    the number of half-edges per key (2 on a closed manifold).
    """
    i, j = _half_edges(faces)   # alive through np.unique: freed first, s7 RSS peaks 2 MB higher
    return np.unique(_edge_keys(i, j, n_vertices), return_inverse=True, return_counts=True)


class Mesh:
    """Closed oriented triangle surface in R^3.

    Parameters
    ----------
    vertices : (V, 3) float array
    faces : (F, 3) int array
        Vertex index triples, counterclockwise w.r.t. the outward normal.

    The arrays are copied and frozen; the edge table, adjacency, the
    validation report, the barycenter, and the face areas and enclosed
    volume (one face pass over `face_cross`, which is not kept) are
    computed on first use and cached.  The face pass holds (F, 3) arrays
    only, never the (F, 3, 3) corners.
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
        return row_cross(*edge_vectors(self.vertices, *self.faces.T))

    @cached_property
    def _face_pass(self) -> tuple[np.ndarray, float]:
        """(face areas, signed enclosed volume), both from one `face_cross`."""
        # c0 . ((c1 - c0) x (c2 - c0)) equals c0 . (c1 x c2) but does not
        # cancel far from the origin; an area or volume beyond the float
        # range reads inf or nan, with no warning: validation names the face
        with np.errstate(over="ignore", invalid="ignore"):
            cross = self.face_cross
            areas = 0.5 * np.linalg.norm(cross, axis=1)
            corner = self.vertices[self.faces[:, 0]]
            return areas, float(np.sum(np.einsum("ij,ij->i", corner, cross) / 6.0))

    @property
    def face_areas(self) -> np.ndarray:
        return self._face_pass[0]

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

    @property
    def enclosed_volume(self) -> float:
        """Signed volume by the divergence theorem: > 0 when the faces turn
        counterclockwise about the outward normal."""
        return self._face_pass[1]


def load_mesh(path) -> Mesh:
    """Load an ASCII OFF or OBJ file; the format comes from the extension.

    Neither adjacency nor structural validation is computed here.
    """
    path = os.fspath(path)
    # opened first: a missing file reports as missing, whatever its extension
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    fmt = _format_of(path)
    lines = text.splitlines()   # then the non-blank ones, stripped of '#' comments
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(filter(None, map(str.strip, lines)))
    try:
        return (_parse_off if fmt == "off" else _parse_obj)(lines)
    except OverflowError as exc:   # a face index beyond int64
        raise IndexError(f"{fmt.upper()} face index out of range: {exc}") from exc


def _format_of(path: str) -> str:
    """The mesh format of `path`, "off" or "obj", read from its extension."""
    fmt = os.path.splitext(path)[1].lstrip(".").lower()
    if fmt not in ("off", "obj"):
        raise MeshFormatError(f"unsupported mesh format {fmt!r} (use off or obj)")
    return fmt


def _parse_off(lines: list[str]) -> Mesh:
    if not lines:
        raise MeshFormatError("empty OFF file")
    header, body = lines[0], lines[1:]
    if not header.startswith("OFF"):
        raise MeshFormatError("missing OFF header")
    # the counts follow on the header line or on the next one
    counts_line = header[3:].strip() or (body.pop(0) if body else None)
    if not counts_line:
        raise MeshFormatError("missing OFF counts line")
    try:
        nv, nf = [int(tok) for tok in counts_line.split()[:2]]
    except ValueError as exc:
        raise MeshFormatError(f"bad OFF counts line {counts_line!r}") from exc
    # the counts are checked before they size an allocation
    if min(nv, nf) < 0 or nv + nf > len(body):
        raise MeshFormatError(f"OFF declares {nv} vertices and {nf} faces, "
                              f"but {len(body)} lines follow")
    # the sections, split by the checked counts, follow each other: the
    # first bad line raises first
    vertex, face = body[:nv], body[nv:nv + nf]
    del body   # the sections take its place in memory
    verts = _read_rows(vertex, _VERTEX, (0, 1, 2), partial(_vertex_lines, fmt="OFF", first=0))
    faces = _read_rows(face, _OFF_FACE, (0, 1, 2, 3), _off_face_lines, lead=3)
    return Mesh(verts, faces)


def _parse_obj(lines: list[str]) -> Mesh:
    rules = {"v": partial(_vertex_lines, fmt="OBJ", first=1), "f": _obj_face_lines}
    records = {tag: [] for tag in rules}   # only v and f records are read
    for line in lines:
        tag = line.split(None, 1)[0]
        if tag in rules:
            records[tag].append(line)
    try:
        verts = _read_rows(records["v"], _VERTEX, (1, 2, 3), rules["v"])
        faces = _read_rows(records["f"], _OBJ_FACE, None, rules["f"])
    except (MeshFormatError, OverflowError):
        # the sections interleave: name the first bad record in file order;
        # an index beyond int64 raises only when every record is well formed
        for line in lines:
            tag = line.split(None, 1)[0]
            if tag in rules:
                rules[tag]([line])
        raise
    if faces.size and (faces.min() < 1 or faces.max() > len(verts)):
        raise IndexError(f"OBJ face index out of 1-based range [1, {len(verts)}]: "
                         f"min {faces.min()}, max {faces.max()}")
    faces -= 1   # in place: Mesh makes the one copy it keeps
    return Mesh(verts, faces)


_VERTEX = np.dtype([("row", np.float64, 3)])
_OFF_FACE = np.dtype([("lead", np.int64), ("row", np.int64, 3)])
_OBJ_FACE = np.dtype([("lead", "S1"), ("row", np.int64, 3)])


def _read_rows(lines: list[str], dtype, usecols, rule, lead=None) -> np.ndarray:
    """A section's rows, TEXT_BLOCK lines at a time; `rule` decides a block numpy refuses."""
    rows = np.empty((len(lines), 3), dtype["row"].base)
    for lo in range(0, len(lines), TEXT_BLOCK):
        block = lines[lo:lo + TEXT_BLOCK]
        array = _block_array(block, dtype, usecols, lead)
        rows[lo:lo + TEXT_BLOCK] = rule(block) if array is None else array
    return rows


def _block_array(block: list[str], dtype, usecols, lead=None) -> np.ndarray | None:
    """The block's rows as numpy's C reader converts them at once, or None.

    Each line's columns `usecols` (with None, exactly those of `dtype`) make
    a record: a `row` of three numbers after a face's `lead` column (an OFF
    count, an OBJ tag); later columns are ignored, as by the line rules.  The
    reader takes fewer spellings than Python (no `1_0`, no `1.0` as an
    integer): a block it refuses, or whose `lead` is not `lead`, may be valid.
    """
    try:
        records = np.loadtxt(block, dtype=dtype, usecols=usecols, ndmin=1)
    except (ValueError, OverflowError):
        return None
    bad = len(records) != len(block) or lead is not None and np.any(records["lead"] != lead)
    return None if bad else records["row"]


def _vertex_lines(block: list[str], fmt: str, first: int) -> np.ndarray:
    """Vertex lines one at a time: three numbers from column `first` on, or a
    MeshFormatError naming the first line without them."""
    verts = np.empty((len(block), 3))
    for k, line in enumerate(block):
        try:
            x, y, z = map(float, line.split()[first:first + 3])
        except ValueError as exc:   # also when fewer than three are there
            raise MeshFormatError(f"bad {fmt} vertex line {line!r}") from exc
        verts[k] = x, y, z
    return verts


def _off_face_lines(block: list[str]) -> np.ndarray:
    """OFF face lines one at a time: a count of 3 and the three indices after
    it; an index beyond int64 raises OverflowError at its line."""
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


def _obj_face_lines(block: list[str]) -> list[list[int]]:
    """OBJ face lines one at a time: exactly three `i`, `i/j` or `i/j/k`
    tokens, whose `i` is kept as a Python int."""
    faces = []
    for line in block:
        parts = line.split()
        if len(parts) != 4:
            raise MeshFormatError(f"only triangle faces supported, got {line!r}")
        try:
            faces.append([int(tok.split("/")[0]) for tok in parts[1:]])
        except ValueError as exc:
            raise MeshFormatError(f"bad OBJ face line {line!r}") from exc
    return faces


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh as ASCII OFF or OBJ; the format comes from the extension.

    Coordinates are written as `repr(float)`, so a written file loads back
    to bitwise-equal arrays.  A write that fails leaves no file.
    """
    path = os.fspath(path)
    faces = mesh.faces
    if _format_of(path) == "off":
        keys = _edge_keys(*_half_edges(faces), mesh.n_vertices)
        keys.sort()   # for the header's edge count only: no cached edge table
        n_edges = len(keys) - np.count_nonzero(keys[1:] == keys[:-1])
        head = f"OFF\n{mesh.n_vertices} {mesh.n_faces} {n_edges}\n"
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
    `end`.  Rows beyond one TEXT_BLOCK are split by `_fork_halves`: a
    forked child formats the second half, which is copied into `fh` in
    bounded chunks once this process has written the first.
    """
    rows = partial(_row_blocks, columns, prefix=prefix, sep=sep, end=end)

    def copy_back(spool, mid):
        with io.TextIOWrapper(spool, encoding="utf-8", newline="") as text:
            shutil.copyfileobj(text, fh)

    _fork_halves(len(columns[0]), TEXT_BLOCK, lambda mid, n: map(str.encode, rows(mid, n)),
                 lambda start, mid: fh.writelines(rows(start, mid)), copy_back)


def _row_blocks(columns, start: int, stop: int, prefix: str, sep: str, end: str):
    """The text of rows [start, stop), TEXT_BLOCK rows at a time; the last
    block is cut at `stop`."""
    for lo in range(start, stop, TEXT_BLOCK):
        cells = zip(*(map(repr, c[lo:min(lo + TEXT_BLOCK, stop)].tolist()) for c in columns))
        yield prefix + (end + prefix).join(map(sep.join, cells)) + end


_in_child = False   # True in a process that `_fork_child` made


def _fork_halves(n, block, child_half, own_half, receive) -> None:
    """Run rows [0, n) in two halves once they span more than one `block`.

    With n <= block, or inside a forked child (which never forks again),
    `own_half(0, n)` runs here alone.  Otherwise, with mid = n // 2,
    `_fork_child` runs `child_half(mid, n)` in a child while
    `own_half(0, mid)` runs here, and `receive(spool, mid)` reads the
    child's buffers back.
    """
    if n <= block or _in_child:
        own_half(0, n)
        return
    mid = n // 2
    _fork_child(lambda: child_half(mid, n), lambda: own_half(0, mid),
                lambda spool: receive(spool, mid))


def _fork_child(child, own, receive):
    """(own(), receive(spool)): `child()` runs in a forked child meanwhile.

    `child` returns an iterable of bytes-like buffers, which the child
    writes to an unlinked temporary file, the spool; once `own()` has
    returned, `receive(spool)`, rewound, reads them back here.  The spool
    is the child's one channel, and the child is reaped whatever happens:
    - an exception the child raises replaces its buffers in the spool,
      pickled, and is raised again here, whatever `own()` returned; one
      that does not survive a pickle round-trip comes back as an OSError
      naming its type and message;
    - a child that dies (exits with no result) raises OSError;
    - if `own` raises, the child is killed and reaped and `own`'s
      exception propagates.
    The child leaves through `os._exit`: it never returns into the
    caller, runs no cleanup of this process's state and never flushes
    the stdio buffers it inherited.  `os.fork` makes this POSIX-only.
    """
    global _in_child
    raised = 3   # the child's exit status when the spool holds its exception
    with tempfile.TemporaryFile() as spool:
        pid = os.fork()
        if pid == 0:
            _in_child = True
            status = 1
            try:
                try:
                    for buffer in child():
                        spool.write(buffer)
                    spool.flush()
                    status = 0
                except BaseException as exc:   # raised again in the parent
                    spool.seek(0)
                    spool.truncate()   # drops the buffers already written
                    try:   # one that does not come back whole comes back named
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        exc = OSError(f"forked child process raised "
                                      f"{type(exc).__name__}: {exc}")
                    pickle.dump(exc, spool)
                    spool.flush()
                    status = raised
            finally:
                os._exit(status)
        try:
            result = own()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        spool.seek(0)
        if status == raised:
            raise pickle.load(spool)
        if status:
            raise OSError(f"forked child process exited with status {status}")
        return result, receive(spool)


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Check closedness, orientation (consistent and outward), connectivity,
    vertex fans and degeneracy.

    Reporting only: never raises on a broken mesh.  The report is computed
    on the first call and cached on the (immutable) mesh.
    """
    return mesh._validation


def _trace_faces(mesh: Mesh) -> tuple[bool, bool, int | None]:
    """(faces connected, no directed edge repeats, first vertex whose faces
    are not one fan), from each edge's first half-edge, `first`.

    Each face is linked to the faces that hold the first half-edges of its
    three edges (half-edge h lies in face h mod F), so the components are
    those of faces sharing edges.  If no directed edge repeats, the
    half-edges h and t of an interior edge run opposite ways, and the
    corner at h's tail (`_half_edges` order) is followed around its vertex
    by the corner at t's head, (t + F) mod 3F.  Each cycle of this map, or
    path at a boundary, is a fan; otherwise the fans are not traced (None).
    """
    _, inverse, counts = mesh._edge_table
    F = mesh.n_faces
    C = 3 * F
    h = np.arange(C)
    first = np.full(len(counts), C)
    np.minimum.at(first, inverse, h)
    holder = (first[inverse] % F).reshape(3, F).T.ravel()   # row f: its edges' holders
    links = sparse.csr_matrix((np.ones(C, np.int8), holder, np.arange(0, C + 1, 3)), (F, F))
    connected = bool(csgraph.connected_components(links, directed=False)[0] == 1)
    del holder, links   # freed before the fan graph: both alive raise the memory peak
    i, j = _half_edges(mesh.faces)
    last = np.zeros(len(counts), dtype=np.int64)
    np.maximum.at(last, inverse, h)
    inner = counts[inverse] == 2
    twin = first[inverse] + last[inverse] - h   # the other half-edge, or h
    if np.any(counts > 2) or np.any((i[twin] != j) & inner):
        return connected, False, None
    del j, first, last
    turn = np.where(inner, (twin + F) % C, h)   # at a boundary, a self-link
    links = sparse.csr_matrix((np.ones(C, np.int8), turn, np.arange(C + 1)), (C, C))
    del h, inner, twin, turn
    n_fans, fan = csgraph.connected_components(links, directed=False)
    fan_vertex = np.empty(n_fans, dtype=np.int64)
    fan_vertex[fan] = i
    bad = np.flatnonzero(np.bincount(fan_vertex, minlength=mesh.n_vertices) != 1)
    return connected, True, int(bad[0]) if bad.size else None


def _validation_report(mesh: Mesh) -> ValidationReport:
    counts = mesh._edge_table[2]
    closed = bool(len(counts) > 0 and np.all(counts == 2))

    # oriented: the two faces of each edge traverse it in opposite directions
    connected, simple, bad_vertex = _trace_faces(mesh)

    areas = mesh.face_areas
    nonfinite = np.flatnonzero(~np.isfinite(areas))
    min_face_area = float(areas.min()) if len(areas) else 0.0
    mean_area = float(areas.mean()) if len(areas) else 0.0
    return ValidationReport(
        closed=closed,
        oriented=closed and simple,
        connected=connected,
        outward=mesh.enclosed_volume > 0,
        min_face_area=min_face_area,
        degenerate_threshold=DEGENERATE_AREA_FACTOR * mean_area,
        manifold=bad_vertex is None if simple else None,
        nonmanifold_vertex=bad_vertex,
        nonfinite_face=int(nonfinite[0]) if nonfinite.size else None,
    )
