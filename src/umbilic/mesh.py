"""Triangle mesh container, OFF/OBJ ingestion, validation and measures.

Meshes are closed oriented triangle surfaces embedded in R^3.  Vertices and
faces are immutable numpy arrays.  Combinatorics come from one keyed edge
table (see `edge_table`), built on first use and cached with the one-ring
adjacency derived from it.  Structural validation (closedness,
orientability, connectivity, degeneracy) is a separate, reporting-only step
so that broken inputs can still be inspected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# Faces with area below this multiple of the mean face area fail validation;
# curvature fitting divides by local area scales.
DEGENERATE_AREA_FACTOR = 1e-14


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed in the declared format."""


@dataclass(frozen=True)
class ValidationReport:
    """Topological health of a mesh; downstream modules require all_passed."""

    closed: bool
    oriented: bool
    connected: bool
    min_face_area: float
    degenerate_threshold: float

    @property
    def all_passed(self) -> bool:
        return (
            self.closed
            and self.oriented
            and self.connected
            and self.min_face_area > self.degenerate_threshold
        )


@dataclass(frozen=True)
class MeshMeasures:
    """Surface area, surface-measure barycenter and enclosed volume."""

    area: float
    barycenter: np.ndarray
    enclosed_volume: float


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

    The arrays are copied and frozen; the edge table, adjacency and all
    derived measures are computed on first use and cached.
    """

    def __init__(self, vertices, faces):
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        f = np.ascontiguousarray(faces, dtype=np.int64)
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
    def edges(self) -> np.ndarray:
        """Unique undirected edges as sorted (E, 2) index pairs."""
        return np.stack(np.divmod(self._edge_table[0], self.n_vertices), axis=1)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self._edge_table[0]) + self.n_faces

    def one_ring(self, i: int) -> np.ndarray:
        """Indices of vertices sharing an edge with vertex i."""
        m = self.one_ring_matrix
        return m.indices[m.indptr[i]:m.indptr[i + 1]]

    @cached_property
    def one_ring_matrix(self) -> sparse.csr_matrix:
        """Vertex adjacency as a 0/1 csr matrix (no diagonal)."""
        V = self.n_vertices
        i, j = np.divmod(self._edge_table[0], V)
        adj = sparse.csr_matrix(
            (np.ones(2 * len(i), dtype=np.int8),
             (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(V, V),
        )
        adj.data[:] = 1
        return adj

    # -- geometry ------------------------------------------------------------

    @cached_property
    def face_corners(self) -> np.ndarray:
        """(F, 3, 3) vertex positions per face."""
        return self.vertices[self.faces]

    @cached_property
    def face_cross(self) -> np.ndarray:
        """(F, 3) un-normalized face normals (cross of two edges)."""
        c = self.face_corners
        return np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])

    @cached_property
    def face_areas(self) -> np.ndarray:
        return 0.5 * np.linalg.norm(self.face_cross, axis=1)

    @cached_property
    def vertex_areas(self) -> np.ndarray:
        """Barycentric vertex areas: one third of incident face areas.

        Positive, and an exact partition of the total area.
        """
        va = np.zeros(self.n_vertices)
        np.add.at(va, self.faces[:, 0], self.face_areas / 3.0)
        np.add.at(va, self.faces[:, 1], self.face_areas / 3.0)
        np.add.at(va, self.faces[:, 2], self.face_areas / 3.0)
        return va

    @cached_property
    def area(self) -> float:
        """Total surface area, the sum of the face areas."""
        return float(np.sum(self.face_areas))


def load_mesh(path, fmt: str | None = None) -> Mesh:
    """Load an ASCII OFF or OBJ file.

    fmt is "off" or "obj"; inferred from the extension when omitted.
    Neither adjacency nor structural validation is computed here.
    """
    path = os.fspath(path)
    if fmt is None:
        fmt = os.path.splitext(path)[1].lstrip(".").lower()
    fmt = fmt.lower()
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if fmt == "off":
        return _parse_off(text)
    if fmt == "obj":
        return _parse_obj(text)
    raise MeshFormatError(f"unsupported mesh format {fmt!r} (use off or obj)")


def _content_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _parse_off(text: str) -> Mesh:
    lines = _content_lines(text)
    try:
        header = next(lines)
    except StopIteration:
        raise MeshFormatError("empty OFF file") from None
    if header == "OFF":
        counts_line = next(lines, None)
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
    verts = np.empty((nv, 3))
    for k in range(nv):
        line = next(lines, None)
        if line is None:
            raise MeshFormatError(f"OFF ended after {k} of {nv} vertices")
        parts = line.split()
        if len(parts) < 3:
            raise MeshFormatError(f"bad OFF vertex line {line!r}")
        try:
            verts[k] = [float(p) for p in parts[:3]]
        except ValueError as exc:
            raise MeshFormatError(f"bad OFF vertex line {line!r}") from exc
    faces = np.empty((nf, 3), dtype=np.int64)
    for k in range(nf):
        line = next(lines, None)
        if line is None:
            raise MeshFormatError(f"OFF ended after {k} of {nf} faces")
        parts = line.split()
        try:
            cnt = int(parts[0])
            idx = [int(p) for p in parts[1:1 + cnt]]
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(f"bad OFF face line {line!r}") from exc
        if cnt != 3 or len(idx) != 3:
            raise MeshFormatError(f"only triangle faces supported, got {line!r}")
        faces[k] = idx
    return Mesh(verts, faces)


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
            f"min {faces.min() if faces.size else 0}, max {faces.max()}"
        )
    return Mesh(verts, faces - 1)


def save_mesh(mesh: Mesh, path, fmt: str | None = None) -> None:
    """Write a mesh as ASCII OFF or OBJ (format from extension if omitted)."""
    path = os.fspath(path)
    if fmt is None:
        fmt = os.path.splitext(path)[1].lstrip(".").lower()
    fmt = fmt.lower()
    lines = []
    if fmt == "off":
        lines.append("OFF")
        lines.append(f"{mesh.n_vertices} {mesh.n_faces} {len(mesh.edges)}")
        lines.extend(
            f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.vertices
        )
        lines.extend(f"3 {i} {j} {k}" for i, j, k in mesh.faces)
    elif fmt == "obj":
        lines.extend(
            f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.vertices
        )
        lines.extend(f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.faces)
    else:
        raise MeshFormatError(f"unsupported mesh format {fmt!r} (use off or obj)")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Check closedness, orientability, connectivity and face degeneracy.

    Reporting only: never raises on a broken mesh.
    """
    keys, inverse, counts = mesh._edge_table
    closed = bool(len(counts) > 0 and np.all(counts == 2))

    # Consistent orientation: every directed edge occurs exactly once, so the
    # two faces of each undirected edge traverse it in opposite directions.
    oriented = False
    if closed:
        i, j = _half_edges(mesh.faces)
        directed = np.sort(i * mesh.n_vertices + j)
        oriented = bool(np.all(directed[1:] != directed[:-1]))

    # Faces sharing an edge are linked through a graph node for that edge.
    F = mesh.n_faces
    n = F + len(keys)
    face_edge = sparse.csr_matrix(
        (np.ones(3 * F, dtype=np.int8), (np.tile(np.arange(F), 3), F + inverse)),
        shape=(n, n),
    )
    connected = bool(csgraph.connected_components(face_edge, directed=False)[0] == 1)

    areas = mesh.face_areas
    min_face_area = float(areas.min()) if len(areas) else 0.0
    mean_area = float(areas.mean()) if len(areas) else 0.0
    threshold = DEGENERATE_AREA_FACTOR * mean_area
    return ValidationReport(
        closed=closed,
        oriented=oriented,
        connected=connected,
        min_face_area=min_face_area,
        degenerate_threshold=threshold,
    )


def measures(mesh: Mesh) -> MeshMeasures:
    """Total area, surface barycenter and divergence-theorem volume.

    The barycenter is the area-weighted mean of face centroids, i.e. the
    center of mass of the piecewise-flat surface measure (not the centroid
    of the enclosed solid).
    """
    areas = mesh.face_areas
    area = mesh.area
    c = mesh.face_corners
    barycenter = (areas[:, None] * c.mean(axis=1)).sum(axis=0) / area
    signed = np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2])) / 6.0
    return MeshMeasures(
        area=area,
        barycenter=barycenter,
        enclosed_volume=float(np.sum(signed)),
    )
