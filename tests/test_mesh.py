"""Cotangent-Laplacian spectra on triangle meshes."""

import numpy as np
import pytest

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
    mesh = icosphere(1)
    path = tmp_path / "ico.off"
    save_off(mesh, path)
    back = load_off(path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


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
