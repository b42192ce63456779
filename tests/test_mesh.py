"""Cotangent-Laplacian spectra on triangle meshes."""

import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_spectra.cli import EXIT_OK, EXIT_VALIDATION, run
from cone_spectra.errors import InvalidMesh
from cone_spectra.mesh import (
    TriMesh,
    _count_below,
    clifford_torus_mesh,
    cotangent_laplacian,
    icosphere,
    load_off,
    mesh_spectrum,
    save_off,
)
from cone_spectra.spectra import clifford_torus_metric, torus_spectrum

SPHERE_TARGET = np.array([0.0, 2, 2, 2, 6, 6, 6, 6, 6])


def _dense_reference(mesh):
    """Face-by-face dense assembly: the stiffness matrix and lumped mass."""
    nv = len(mesh.vertices)
    p = mesh.vertices
    L = np.zeros((nv, nv))
    mass = np.zeros(nv)
    for (i, j, k), area in zip(mesh.faces, mesh.face_areas()):
        idx = (i, j, k)
        for c in range(3):
            a, b, o = idx[c], idx[(c + 1) % 3], idx[(c + 2) % 3]
            # cot of the angle at o, opposite the edge (a, b)
            w = 0.5 * float(np.dot(p[a] - p[o], p[b] - p[o])) / (2.0 * area)
            L[a, b] -= w
            L[b, a] -= w
            L[a, a] += w
            L[b, b] += w
        mass[[i, j, k]] += area / 3.0
    return L, mass


def _dense_eigenvalues(mesh):
    L, mass = _dense_reference(mesh)
    s = 1.0 / np.sqrt(mass)
    return np.linalg.eigvalsh(L * s[:, None] * s[None, :])


def _relative_errors(values, target):
    values = np.asarray(values)
    errs = []
    for v, t in zip(values, target):
        errs.append(abs(v - t) if t == 0 else abs(v - t) / t)
    return np.array(errs)


def test_icosphere_counts():
    mesh = icosphere(2)
    assert len(mesh.vertices) == 162
    assert len(mesh.faces) == 320
    assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 1.0)


def test_icosphere_spectrum_refinement_4():
    sp = mesh_spectrum(icosphere(4), 9)
    vals = sp.eigenvalues()
    errs = _relative_errors(vals, SPHERE_TARGET)
    assert errs[0] < 1e-6
    assert np.all(errs[1:] < 0.05)
    assert not sp.exact


def test_sphere_convergence_is_monotone():
    worst = []
    for refinement in (2, 3, 4):
        vals = mesh_spectrum(icosphere(refinement), 9).eigenvalues()
        worst.append(_relative_errors(vals, SPHERE_TARGET)[1:].max())
    assert worst[0] > worst[1] > worst[2]


def test_clifford_mesh_spectrum():
    target = [float(e) for e in torus_spectrum(clifford_torus_metric(), 2).eigenvalues()][:7]
    vals = mesh_spectrum(clifford_torus_mesh(48), 7).eigenvalues()
    errs = _relative_errors(vals, target)
    assert errs[0] < 1e-6
    assert np.all(errs[1:] < 0.05)


def test_single_eigenvalue_is_constant_mode():
    sp = mesh_spectrum(icosphere(1), 1)
    assert len(sp.eigenvalues()) == 1
    assert abs(sp.eigenvalues()[0]) < 1e-6


def test_eigenvalues_nonnegative():
    sp = mesh_spectrum(icosphere(2), 20)
    assert all(v >= -1e-9 for v in sp.eigenvalues())
    assert sp.eigenvalues()[0] < 1e-6


def test_open_boundary_rejected():
    mesh = icosphere(1)
    with pytest.raises(InvalidMesh):
        TriMesh(mesh.vertices, mesh.faces[:-1])


def test_degenerate_face_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(InvalidMesh):
        TriMesh(verts, faces)


def test_non_manifold_rejected():
    mesh = icosphere(0)
    faces = np.vstack([mesh.faces, mesh.faces[0]])
    with pytest.raises(InvalidMesh):
        TriMesh(mesh.vertices, faces)


def test_bad_index_rejected():
    with pytest.raises(InvalidMesh):
        TriMesh(np.eye(3), np.array([[0, 1, 3]]))


def test_off_round_trip(tmp_path):
    # save_off writes repr() floats, so load_off reads back the same bits
    for refinements in (0, 1, 2):
        mesh = icosphere(refinements)
        path = tmp_path / f"ico{refinements}.off"
        save_off(mesh, path)
        back = load_off(path)
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert back.faces.dtype == mesh.faces.dtype and np.array_equal(back.faces, mesh.faces)


def test_off_rejects_garbage(tmp_path):
    good = ["OFF", "4 4 0", "0 0 0", "1 0 0", "0 1 0", "0 0 1",
            "3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]
    bad = {
        "wrong header": ["PLY", "3 1 0"],
        "short header": ["OFF", "4 4"],
        "non-integer count": ["OFF", "4 x 0"] + good[2:],
        "negative count": ["OFF", "-4 4 0"] + good[2:],
        "truncated vertices": good[:4],
        "truncated faces": good[:9],
        "trailing tokens": good + ["7"],
        "non-numeric coordinate": good[:3] + ["1 x 0"] + good[4:],
        "fractional index": good[:9] + ["3 1 2 3.5"],
        "quad face": good[:9] + ["4 1 2 3"],
        "index past int64": good[:9] + ["3 1 2 99999999999999999999"],
        "comment only": ["# OFF"],
    }
    for name, lines in bad.items():
        path = tmp_path / f"{name.replace(' ', '_')}.off"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidMesh):
            load_off(path)


def test_count_validation():
    mesh = icosphere(0)
    with pytest.raises(ValueError):
        mesh_spectrum(mesh, 0)
    with pytest.raises(ValueError):
        mesh_spectrum(mesh, len(mesh.vertices) + 1)


@pytest.mark.parametrize(
    "mesh", [icosphere(2), clifford_torus_mesh(8)], ids=["ico2", "clifford8"]
)
def test_sparse_assembly_matches_face_loop(mesh):
    L, mass = cotangent_laplacian(mesh)
    L_ref, mass_ref = _dense_reference(mesh)
    assert np.abs(L.toarray() - L_ref).max() < 1e-12
    assert np.abs(mass - mass_ref).max() < 1e-12


@pytest.mark.parametrize(
    "mesh, counts",
    [
        (icosphere(1), range(1, 43)),
        (icosphere(2), range(1, 41)),
        (clifford_torus_mesh(8), (13, 30)),
    ],
    ids=["ico1", "ico2", "clifford8"],
)
def test_spectrum_matches_dense_eigvalsh(mesh, counts):
    # every count, also those that cut through a cluster of a multiple eigenvalue
    dense = _dense_eigenvalues(mesh)
    for count in counts:
        sp = mesh_spectrum(mesh, count)
        exact = np.maximum(dense[:count], 0.0)
        assert sum(m for _, m in sp.entries) == count
        # clusters report their mean, so compare the means of the dense values
        start = 0
        for value, mult in sp.entries:
            ref = exact[start : start + mult].mean()
            assert abs(value - ref) <= 1e-10 * max(1.0, ref)
            start += mult
        assert abs(sp.cutoff - exact[-1]) <= 1e-10 * max(1.0, exact[-1])


def test_count_equal_to_vertex_count():
    mesh = icosphere(0)
    sp = mesh_spectrum(mesh, len(mesh.vertices))
    assert [m for _, m in sp.entries] == [1, 3, 5, 3]
    dense = np.maximum(_dense_eigenvalues(mesh), 0.0)
    assert abs(sp.cutoff - dense[-1]) < 1e-10 * dense[-1]


SCALED_MESHES = {
    "ico3": icosphere(3),
    "clifford24": clifford_torus_mesh(24),
    "clifford32": clifford_torus_mesh(32),  # splits eigenvalue 2 as 4 + 2 at any scale
}
SCALE_CASES = [(0.1, "ico3"), (0.1, "clifford24"), (10.0, "ico3"), (10.0, "clifford24"),
               (10.0, "clifford32")]


@pytest.mark.parametrize("scale, name", SCALE_CASES, ids=[f"{s}-{n}" for s, n in SCALE_CASES])
def test_eigenvalues_scale_inverse_square(scale, name):
    mesh = SCALED_MESHES[name]
    base = mesh_spectrum(mesh, 13)
    scaled = mesh_spectrum(TriMesh(scale * mesh.vertices, mesh.faces), 13)
    assert [m for _, m in scaled.entries] == [m for _, m in base.entries]
    for (v, _), (w, _) in zip(base.entries, scaled.entries):
        assert abs(w * scale**2 - v) <= 1e-9 * max(1.0, v)


def test_inertia_count_matches_dense():
    mesh = clifford_torus_mesh(8)
    L, mass = cotangent_laplacian(mesh)
    s = 1.0 / np.sqrt(mass)
    A = L.multiply(s[:, None]).multiply(s[None, :]).tocsc()
    dense = _dense_eigenvalues(mesh)
    distinct = np.unique(np.round(dense, 8))
    for tau in 0.5 * (distinct[:-1] + distinct[1:]):
        assert _count_below(A, tau) == np.count_nonzero(dense < tau)


def test_icosphere_5_spectrum():
    # 10,242 vertices: out of reach of a dense solve
    vals = mesh_spectrum(icosphere(5), 9).eigenvalues()
    errs = _relative_errors(vals, SPHERE_TARGET)
    assert errs[0] < 1e-6
    assert np.all(errs[1:] < 0.05)


def test_reruns_are_bit_identical():
    mesh = icosphere(4)
    first, second = mesh_spectrum(mesh, 9), mesh_spectrum(mesh, 9)
    assert first.entries == second.entries and first.cutoff == second.cutoff


def test_non_finite_vertex_rejected():
    mesh = icosphere(1)
    verts = mesh.vertices.copy()
    verts[3, 0] = np.nan
    with pytest.raises(InvalidMesh):
        TriMesh(verts, mesh.faces)


# ---------------------------------------------------------------------------
# one factor set-up, relabelling, and the loop-free builders and checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "mesh, count", [(icosphere(3), 9), (clifford_torus_mesh(24), 13)], ids=["ico3", "clifford24"]
)
def test_spectrum_invariant_under_relabelling(mesh, count):
    # vertex k of the relabelled mesh is vertex perm[k] of the original
    perm = np.random.default_rng(5).permutation(len(mesh.vertices))
    relabelled = TriMesh(mesh.vertices[perm], np.argsort(perm)[mesh.faces])
    base, other = mesh_spectrum(mesh, count), mesh_spectrum(relabelled, count)
    assert [m for _, m in other.entries] == [m for _, m in base.entries]
    for (v, _), (w, _) in zip(base.entries, other.entries):
        assert abs(w - v) <= 1e-10 * max(1.0, abs(v))
    assert abs(other.cutoff - base.cutoff) <= 1e-10 * max(1.0, base.cutoff)


def test_one_factor_setup_serves_arpack_and_certificate(monkeypatch):
    factored, operators = [], []
    splu, eigsh = scipy.sparse.linalg.splu, scipy.sparse.linalg.eigsh

    def counted_splu(*args, **kwargs):
        factored.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    def recorded_eigsh(*args, **kwargs):
        operators.append(kwargs.get("OPinv"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded_eigsh)
    mesh_spectrum(icosphere(3), 9)
    # the shift-invert factor and the inertia certificate, one set-up each
    assert factored == ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A"]
    # eigsh is handed the factor, so it builds none of its own
    assert operators and all(op is not None for op in operators)


def _clifford_loop_reference(n):
    """The per-vertex, per-square loop build of the Clifford torus sample."""
    thetas = 2.0 * math.pi * np.arange(n) / n
    verts = np.zeros((n * n, 6))
    inv_sqrt3 = 1.0 / math.sqrt(3.0)
    for i, t1 in enumerate(thetas):
        for j, t2 in enumerate(thetas):
            z = inv_sqrt3 * np.array(
                [np.exp(1j * t1), np.exp(1j * t2), np.exp(-1j * (t1 + t2))]
            )
            verts[i * n + j] = np.concatenate([z.real, z.imag])
    faces = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            faces.append((a, b, c))
            faces.append((a, c, d))
    return verts, np.array(faces, dtype=int)


@pytest.mark.parametrize("n", [3, 8, 48])
def test_clifford_build_matches_loop_reference(n):
    verts, faces = _clifford_loop_reference(n)
    mesh = clifford_torus_mesh(n)
    assert mesh.vertices.dtype == verts.dtype and mesh.vertices.tobytes() == verts.tobytes()
    assert mesh.faces.dtype == faces.dtype and np.array_equal(mesh.faces, faces)


def _reference_rejection(vertices, faces):
    """The message of the unique/isin structure check, or None for a valid mesh."""
    v, f = np.asarray(vertices, dtype=float), np.asarray(faces, dtype=int)
    if not np.all(np.isfinite(v)):
        return "non-finite vertex coordinate"
    if f.size and (f.min() < 0 or f.max() >= len(v)):
        return "face index out of range"
    if len(f) == 0:
        return "mesh has no faces"
    a, b = v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]
    gram = (a * a).sum(1) * (b * b).sum(1) - (a * b).sum(1) ** 2
    if np.any(0.5 * np.sqrt(np.maximum(gram, 0.0)) <= 1e-14):
        return "degenerate face (area <= 1e-14)"
    if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])):
        return "face with repeated vertex"
    nv = len(v)
    tails, heads = f.ravel(), np.roll(f, -1, axis=1).ravel()
    directed = tails * nv + heads
    if len(np.unique(directed)) != len(directed):
        return "non-manifold or inconsistently oriented edge"
    if not np.all(np.isin(heads * nv + tails, directed)):
        return "open boundary edge"
    return None


def _rejected_cases():
    """The meshes of the test_*_rejected cases, then seeded edits of icosphere(1):
    dropped, duplicated and flipped faces and moved indices."""
    ico0, ico1 = icosphere(0), icosphere(1)
    nan_verts = ico1.vertices.copy()
    nan_verts[3, 0] = np.nan
    cases = [
        (ico1.vertices, ico1.faces[:-1]),
        (np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
         np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])),
        (ico0.vertices, np.vstack([ico0.faces, ico0.faces[0]])),
        (np.eye(3), np.array([[0, 1, 3]])),
        (nan_verts, ico1.faces),
        (ico1.vertices, ico1.faces[:0]),
    ]
    rng = np.random.default_rng(11)
    nf, nv = len(ico1.faces), len(ico1.vertices)
    for _ in range(40):
        f = ico1.faces.copy()
        edit = rng.integers(4)
        row = rng.integers(nf)
        if edit == 0:
            f = np.delete(f, rng.choice(nf, rng.integers(1, 4), replace=False), axis=0)
        elif edit == 1:
            f = np.vstack([f, f[row][::-1] if rng.integers(2) else f[row]])
        elif edit == 2:
            f[row] = f[row][::-1]
        else:
            f[row, rng.integers(3)] = rng.integers(nv)
        cases.append((ico1.vertices, f))
    return cases


def test_structure_check_matches_unique_isin_reference():
    rejected = 0
    for vertices, faces in _rejected_cases():
        want = _reference_rejection(vertices, faces)
        if want is None:
            TriMesh(vertices, faces)
            continue
        rejected += 1
        with pytest.raises(InvalidMesh) as info:
            TriMesh(vertices, faces)
        assert str(info.value) == want
    assert rejected >= 40


def test_face_area_overflow_rejected():
    mesh = icosphere(0)
    with pytest.raises(InvalidMesh, match="overflows"):
        TriMesh(1e200 * mesh.vertices, mesh.faces)


# ---------------------------------------------------------------------------
# load_off contract: any text is a TriMesh or an InvalidMesh
# ---------------------------------------------------------------------------

TETRAHEDRON = ["OFF", "4 4 0", "0 0 0", "1 0 0", "0 1 0", "0 0 1",
               "3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]
OFF_TOKENS = st.one_of(
    st.sampled_from(["OFF", "3", "4", "0", "-1", "2.5", "1e3", "3.0", "+2", "nan", "inf",
                     "1e400", "1e200", "x", "#", "# note", "99999999999999999999", "٣"]),
    st.integers(-2, 12).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
)


@st.composite
def _off_texts(draw):
    """Tetrahedron files with edited lines, tetrahedra at fuzzed coordinates,
    and arbitrary text."""
    kind = draw(st.sampled_from(["edited", "edited", "coordinates", "text"]))
    if kind == "text":
        return draw(st.text(max_size=80))
    lines = list(TETRAHEDRON)
    if kind == "coordinates":
        coordinate = st.floats(-2.0, 2.0) | st.floats()
        lines[2:6] = [" ".join(repr(draw(coordinate)) for _ in range(3)) for _ in range(4)]
    else:
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(lines)))
            edit = draw(st.sampled_from(["token", "insert", "delete", "comment", "blank"]))
            if edit == "insert" or at == len(lines):
                lines.insert(at, " ".join(draw(st.lists(OFF_TOKENS, max_size=4))))
            elif edit == "token":
                tokens = lines[at].split() or [""]
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(OFF_TOKENS)
                lines[at] = " ".join(tokens)
            elif edit == "delete":
                del lines[at]
            elif edit == "comment":
                lines[at] += " #" + draw(st.text(max_size=8))
            else:
                lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n", " \n"])).join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_off_texts())
def test_load_off_contract(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("off") / "mesh.off"
    path.write_text(text, encoding="utf-8")
    try:
        mesh = load_off(path)
    except InvalidMesh:
        return
    assert isinstance(mesh, TriMesh)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_off_texts(), st.integers(1, 5))
def test_fuzzed_off_through_cli(tmp_path_factory, text, count):
    path = tmp_path_factory.mktemp("off") / "mesh.off"
    path.write_text(text, encoding="utf-8")
    code, out = run(["spectrum", "mesh", "--off", str(path), "--count", str(count)])
    assert code in (EXIT_OK, EXIT_VALIDATION), (text, out)
    json.loads(out, parse_constant=_reject_constant)


def test_off_comments_anywhere(tmp_path):
    lines = ["# a tetrahedron", "OFF # header", "4 4 0", "", "0 0 0 # origin"] + TETRAHEDRON[3:]
    lines[-1] += "#last"
    path = tmp_path / "commented.off"
    path.write_text("\n".join(lines) + "\n# trailing")
    mesh = load_off(path)
    assert mesh.vertices.shape == (4, 3) and mesh.faces.tolist()[-1] == [1, 2, 3]
