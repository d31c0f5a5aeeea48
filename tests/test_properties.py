"""Property tests: parser fuzzing and the invariances of a verify run.

The examples come from the deterministic hypothesis profile registered in
conftest.py, so every run draws the same ones.
"""

import dataclasses
import functools
import string
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import umbilic.mesh as mesh_module
from umbilic.mesh import Mesh, load_mesh
from umbilic.pinching import PinchingConstants, verify_theorem
from umbilic.surfgen import Ellipsoid, PerturbedSphere, generate

from conftest import jittered

# numbers of every size and shape, and short runs of arbitrary ASCII
tokens = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.text(alphabet=string.printable, max_size=4),
)
lines = st.lists(tokens, max_size=5).map(" ".join)


def off_text(header, counts, body):
    return "\n".join([header, " ".join(map(str, counts)), *body]) + "\n"


off_texts = st.one_of(
    st.builds(
        off_text,
        st.sampled_from(["OFF", "OFF ", "NOFF", "OFF 3 1 0", ""]),
        st.lists(st.integers(), max_size=3),
        st.lists(lines, max_size=8),
    ),
    st.text(alphabet=string.printable),
)
# OFF files whose counts match their lines: some with only well-formed
# lines, which convert a block at a time, others with some lines of
# another arity or with junk tokens, which the line parsers must name
indices = st.integers(-1, 6).map(str)
numbers = st.one_of(indices, st.floats(allow_nan=False, allow_infinity=False).map(repr))
vertex_lines = st.lists(numbers, min_size=3, max_size=3).map(" ".join)
face_lines = st.lists(indices, min_size=3, max_size=3).map(lambda idx: "3 " + " ".join(idx))
odd_lines = st.builds(
    lambda count, cells: " ".join([count, *cells]),
    st.sampled_from(["", "3", "4", "03", "x"]),
    st.lists(st.one_of(numbers, tokens), min_size=2, max_size=4),
)


def counted_off(verts, faces):
    return off_text("OFF", [len(verts), len(faces), 0], [*verts, *faces])


counted_off_texts = st.one_of(
    st.builds(counted_off, st.lists(vertex_lines, min_size=3, max_size=6),
              st.lists(face_lines, max_size=6)),
    st.builds(counted_off, st.lists(st.one_of(vertex_lines, odd_lines), max_size=6),
              st.lists(st.one_of(face_lines, odd_lines), max_size=6)),
    st.builds(counted_off, st.lists(vertex_lines, min_size=3, max_size=6),
              st.lists(st.one_of(face_lines, odd_lines), min_size=1, max_size=6)),
)


def grid_off(faces):
    """Three vertices and the lines `faces`, enough of them to fill blocks."""
    return counted_off(["0 0 0", "1 0 0", "0 1 0"], faces)


obj_records = st.builds(
    "{} {}".format, st.sampled_from(["v", "f", "vn", "o", "#"]), lines
)
obj_texts = st.one_of(
    st.lists(obj_records, max_size=10).map("\n".join),
    st.text(alphabet=string.printable),
)


def grid_obj(faces):
    """Three vertices and the lines `faces`, enough of them to fill blocks."""
    return "\n".join(["v 0 0 0", "v 1 0 0", "v 0 1 0", *faces]) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def load_or_reject(path, text):
    """Load `text` as a mesh file; only the errors `cli.main` reports may escape."""
    path.write_text(text, encoding="ascii")
    try:
        load_mesh(path)
    except (ValueError, IndexError):
        pass


# parsing costs milliseconds, so the fuzz tests draw more than the profile's
@settings(max_examples=50)
@given(text=off_texts)
@example(text="OFF\n10000000000000 1 0\n0 0 0\n")
@example(text="OFF\n-1 0 0\n")
@example(text="OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n")
def test_off_fuzz_raises_only_format_errors(fuzz_dir, text):
    load_or_reject(fuzz_dir / "fuzz.off", text)


def parsed(path):
    """The bytes of the arrays `load_mesh` reads, or the error it raises."""
    try:
        mesh = load_mesh(path)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    return mesh.vertices.shape, mesh.vertices.tobytes(), mesh.faces.tobytes()


@settings(max_examples=100)
@given(text=st.one_of(off_texts, counted_off_texts))
@example(text="OFF\n3 1 0\n0 0 0 255 0 0\n1 0 0 255 0 0 1\n0 1 0 9\n3 0 1 2\n")
@example(text="OFF # a\n3\t1\t0\n\t0 0 0 # origin\n1\t0 0\n# skip\n0 1 0\n3 0 1 2\n")
@example(text="OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
@example(text="OFF\n3 1 0\n0 0\n1 0 0 5\n0 1 0\n3 0 1 2\n")
@example(text="OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n3 0 1 2\n")
@example(text="OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n3 0 1 99999999999999999999\n")
@example(text="OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n3 0 1\n")
@example(text=grid_off(["3 0 1 2"] * 4097 + ["4 0 1 2 0"] + ["3 0 1 2"] * 3))
@example(text=grid_off(["3 0 1 2"] * 5000 + ["3 0 1 2 7"]))
@example(text="OFF\n3 1 0\n0 0 1_0\n1 0 0\n0 1 0\n3 0 1 0_2\n")
@example(text="OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n")
@example(text="OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 1 0\njunk\n")
def test_off_blocks_parse_as_lines(fuzz_dir, text):
    # the same arrays, or the same error, as when every line is parsed alone
    path = fuzz_dir / "blocks.off"
    path.write_text(text, encoding="ascii")
    blocks = parsed(path)
    with mock.patch.object(mesh_module, "_block_array", lambda *args: None):
        lines = parsed(path)
    assert blocks == lines


@settings(max_examples=100)
@given(text=obj_texts)
@example(text="v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 1\n")
@example(text="v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2 3//3\n")
@example(text="v 0 0 0 1\nv 1 0 0 0.5\nv 0 1 0\nf 1 2 3\n")
@example(text="vn 0 0 1\nvt 0 0\nv\t0 0 0\nv 1\t0 0\nv 0 1 0\nf\t1 2\t3\nvn x\n")
@example(text="v 0 0 0\nf 1 2\nv 1\nv 0 1 0\n")
@example(text="v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\nf 1 2\n")
@example(text="v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\nv 1\n")
@example(text="v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\nf 0 1 2\n")
@example(text=grid_obj(["f 1 2 3"] * 4097 + ["f 1 2 3 1"] + ["f 1 2 3"] * 3))
@example(text=grid_obj(["f 1 2 3"] * 5000 + ["f 1 2 1_0"]))
@example(text="v 0 0 1_0\nv 1 0 0\nv 0 1 0\nf 1 2 0_3\n")
def test_obj_blocks_parse_as_lines(fuzz_dir, text):
    # the same arrays, or the same error, as when every line is parsed alone
    path = fuzz_dir / "blocks.obj"
    path.write_text(text, encoding="ascii")
    blocks = parsed(path)
    with mock.patch.object(mesh_module, "_block_array", lambda *args: None):
        lines = parsed(path)
    assert blocks == lines


# vertex and face blocks as `_block_array` sees them: stripped content
# lines split by spaces and tabs, with numbers in the writers' and other
# common spellings, special values, spellings only Python's converters
# take, int64 overflow, and in some blocks junk tokens or lines with a
# token too few or too many
float_tokens = st.one_of(
    st.floats().flatmap(
        lambda x: st.sampled_from([repr(x), f"{x:e}", f"{x:g}", f"+{x!r}"])),
    st.sampled_from(["inf", "-inf", "+inf", "nan", "-nan", "Infinity", "1e500",
                     "-1e500", "1e-400", "1_0", "0x1p3", "1.", ".5", "1e"]),
)
int_tokens = st.one_of(
    st.integers(-2**65, 2**65).map(str),
    st.integers(0, 99).map("+{}".format),
    st.sampled_from(["007", "1_0", "1.0", "1e3", "0x10", str(2**63 - 1), str(2**63),
                     str(-2**63), str(-2**63 - 1)]),
)
junk_tokens = st.text(
    alphabet=string.ascii_letters + string.punctuation.replace("#", ""),
    min_size=1, max_size=3,
)
separators = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def off_blocks(draw, tokens, width, first=None):
    """Lines of `tokens` (the first cell from `first`), most holding `width`."""
    if draw(st.booleans()):
        tokens = st.one_of(tokens, junk_tokens)
    block = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
        cells = draw(st.lists(tokens, min_size=count, max_size=count))
        if first is not None:
            cells[0] = draw(first)
        seps = draw(st.lists(separators, min_size=count, max_size=count))
        block.append("".join(cell + sep for cell, sep in zip(cells, seps)).rstrip())
    return block


def block_array(block, *args):
    """`_block_array`'s result; any warning it lets out fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return mesh_module._block_array(block, *args)


# a line of width + 1 cells has a column after those the reader takes
@settings(max_examples=300)
@given(block=off_blocks(st.one_of(float_tokens, int_tokens), 3))
@example(block=["inf -inf nan", "1e500\t-1e500  +1.5", "-nan 1e-400 +0.0"])
@example(block=["1_0 2 3"])
@example(block=["0x1p3 2 3"])
@example(block=["0 0 0 255 0 0", "1 2 3 x"])
def test_vertex_block_array_is_the_line_parsers(block):
    rows = block_array(block, mesh_module._VERTEX, (0, 1, 2))
    if rows is not None:
        assert rows.tobytes() == mesh_module._vertex_lines(block, "OFF", 0).tobytes()


@settings(max_examples=300)
@given(block=off_blocks(st.one_of(float_tokens, int_tokens), 4, st.just("v")))
@example(block=["v inf -inf nan", "v\t1e500 -1e500 +1.5 1.0"])
@example(block=["v 1_0 2 3"])
@example(block=["v 1 2 3 w"])
def test_obj_vertex_block_array_is_the_line_rule(block):
    rows = block_array(block, mesh_module._VERTEX, (1, 2, 3))
    if rows is not None:
        assert rows.tobytes() == mesh_module._vertex_lines(block, "OBJ", 1).tobytes()


@settings(max_examples=300)
@given(block=off_blocks(int_tokens, 4, st.sampled_from(["3", "+3", "03", "4", "3.0"])))
@example(block=["3 0 1 2", "3\t4  5 9223372036854775807"])
@example(block=["3 0 1 9223372036854775808"])
@example(block=["3 0 1 1_0"])
@example(block=["3 0 1.0 2"])
@example(block=["3 0 1 2 255 0 0", "3 2 1 0 x"])
def test_face_block_array_is_the_line_parsers(block):
    rows = block_array(block, mesh_module._OFF_FACE, (0, 1, 2, 3), 3)
    if rows is not None:
        assert all(int(line.split()[0]) == 3 for line in block)
        assert rows.tolist() == [[int(token) for token in line.split()[1:4]] for line in block]
        assert np.array_equal(rows, mesh_module._off_face_lines(block))


@settings(max_examples=300)
@given(block=off_blocks(st.one_of(int_tokens, st.sampled_from(["1/2", "1/2/3", "1//3"])),
                        4, st.just("f")))
@example(block=["f 1 2 3", "f\t4  5 9223372036854775807"])
@example(block=["f 1 2 3 4"])
@example(block=["f 1/1 2/2 3/3"])
def test_obj_face_block_array_is_the_line_rule(block):
    rows = block_array(block, mesh_module._OBJ_FACE, None)
    if rows is not None:
        assert rows.tolist() == mesh_module._obj_face_lines(block)


@settings(max_examples=50)
@given(text=obj_texts)
@example(text="v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
def test_obj_fuzz_raises_only_format_errors(fuzz_dir, text):
    load_or_reject(fuzz_dir / "fuzz.obj", text)


PERTURBED3 = generate(PerturbedSphere(1.0, 0.01, 2, 0), 3)
CONSTANTS = PinchingConstants(alpha=0.5, epsilon=0.2)


@pytest.fixture(scope="module")
def bases():
    # the jittered mesh has irregular triangles, so no symmetry of the
    # icosphere can hide a dependence on labels, orientation or position
    meshes = [PERTURBED3, jittered(PerturbedSphere(1.0, 0.01, 2, 0), 3, seed=0)]
    return [(mesh, verify_theorem(mesh, CONSTANTS)) for mesh in meshes]


# every shrink step would run verify_theorem, so a failure is reported unshrunk
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    corner_shift=st.integers(0, 2),
    angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
    shift=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
    c=st.floats(0.25, 4.0),
)
def test_verify_invariant_under_relabelling_and_rigid_motion(
    bases, seed, corner_shift, angles, shift, c
):
    # new vertex k is old vertex relabel[k]; faces are reordered and their
    # corners rotated, which keeps each face's orientation.  The mesh is
    # also scaled by c, with eps (a length) scaled along: the theorem is
    # stated at |M| = 1, so the unit-area quantities do not move, lambda1
    # scales by 1/c^2, margins by 1/c, radii by c and phi_sup by c^3.
    for mesh, base in bases:
        rng = np.random.default_rng(seed)
        relabel = rng.permutation(mesh.n_vertices)
        faces = np.argsort(relabel)[mesh.faces][rng.permutation(mesh.n_faces)]
        faces = np.roll(faces, corner_shift, axis=1)
        rot = Rotation.from_euler("xyz", angles).as_matrix()
        moved = Mesh(c * mesh.vertices[relabel] @ rot.T + shift, faces)
        report = verify_theorem(moved, CONSTANTS.rescaled(c))

        assert report.failure is None and base.failure is None
        assert report.lambda1 * c**2 == pytest.approx(base.lambda1, rel=1e-12, abs=1e-12)
        assert np.allclose(
            report.hypothesis.margins * c, base.hypothesis.margins[relabel],
            rtol=1e-9, atol=1e-16,
        )
        assert report.hypothesis.holds == base.hypothesis.holds
        for got, want in [
            (report.lambda1_normalized, base.lambda1_normalized),
            (report.roth.lhs, base.roth.lhs),
            (report.roth.c_eps, base.roth.c_eps),
            (report.roth.integral_H, base.roth.integral_H),
            (report.roth.h2_norm_2p, base.roth.h2_norm_2p),
            (report.oscillation / c, base.oscillation),
            (report.annulus.inner / c, base.annulus.inner),
            (report.phi_sup / c**3, base.phi_sup),
        ]:
            assert got == pytest.approx(want, rel=1e-9)
        assert report.annulus.contained == base.annulus.contained
        for name, want in dataclasses.asdict(base.trace).items():
            got = getattr(report.trace, name)
            if name == "mu0_mean_gap":
                # a difference of two near-equal curvatures: compare on their scale
                assert got == pytest.approx(want, abs=1e-9 * base.trace.mu0)
            elif isinstance(want, (float, tuple)) and name != "warnings":
                assert got == pytest.approx(want, rel=1e-9), name
            else:
                assert got == want, name


# s3 surfaces whose verify reports must scale exactly by powers of two
POW2_SURFACES = {
    "l2": PerturbedSphere(1.0, 0.01, 2, 0),
    "ellipsoid": Ellipsoid(3.0, 1.0, 1.0),
    "sphere": PerturbedSphere(1.0),
}


@functools.cache
def pow2_base(name):
    mesh = generate(POW2_SURFACES[name], 3)
    return mesh, verify_theorem(mesh, CONSTANTS)


@pytest.mark.parametrize("k", [-60, -20, -10, -3, -2, -1, 1, 2, 3, 10, 20, 60])
@pytest.mark.parametrize("name", sorted(POW2_SURFACES))
def test_verify_exact_under_power_of_two_scaling(name, k):
    # scaling a mesh and eps by 2^k is exact in floating point, so a pipeline
    # whose every tolerance is relative to its own scale gives the same
    # report, each number moved by its power of two and every count and
    # flag unchanged.  rhs_scale = area^(-(2+alpha)/n) eps^(2+alpha) is
    # unit-free, but its two factors are powers of two only for even k
    mesh, base = pow2_base(name)
    s = 2.0**k
    report = verify_theorem(Mesh(s * mesh.vertices, mesh.faces), CONSTANTS.rescaled(s))

    assert report.failure == base.failure is None
    got, want = report.spectral, base.spectral
    assert (got.lambda1 * s**2, got.residual * s**2, got.sigma * s**2) == (
        want.lambda1, want.residual, want.sigma)
    assert tuple(r * s**2 for r in got.ritz_values) == want.ritz_values
    assert (got.iterations, got.basis_columns, got.factor_nnz, got.gap_warning) == (
        want.iterations, want.basis_columns, want.factor_nnz, want.gap_warning)
    assert report.lambda1_normalized == base.lambda1_normalized
    assert report.roth.lhs == base.roth.lhs
    assert report.oscillation / s == base.oscillation
    assert report.phi_sup / s**3 == base.phi_sup
    assert dataclasses.asdict(report.trace) == dataclasses.asdict(base.trace)
    got, want = report.hypothesis, base.hypothesis
    assert got.holds == want.holds
    if k % 2:
        assert abs(got.rhs_scale - want.rhs_scale) <= np.spacing(want.rhs_scale)
    else:
        assert got.rhs_scale == want.rhs_scale
        assert np.array_equal(got.margins * s, want.margins)


# floats of every kind: nan, the infinities, zeros, subnormals and huge values
@settings(max_examples=200)
@given(
    alpha=st.floats(),
    epsilon=st.floats(),
    L=st.floats(),
    c_n=st.floats(),
    C_np_aubry=st.floats(),
)
@example(alpha=0.5, epsilon=np.nan, L=1.0, c_n=1.0, C_np_aubry=1.0)
@example(alpha=0.5, epsilon=0.2, L=np.nan, c_n=1.0, C_np_aubry=1.0)
def test_constants_finite_or_rejected(alpha, epsilon, L, c_n, C_np_aubry):
    try:
        constants = PinchingConstants(
            alpha=alpha, epsilon=epsilon, L=L, c_n=c_n, C_np_aubry=C_np_aubry,
        )
    except ValueError:
        return
    values = [getattr(constants, f.name) for f in dataclasses.fields(constants)]
    assert all(np.isfinite(values))
