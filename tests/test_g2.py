"""Structure-constant and calibration-form checks for the R^7 algebra."""

import itertools
import math
from functools import cache

import numpy as np
import pytest

from cone_spectra import g2
from cone_spectra.errors import DegenerateFrame

E = np.eye(7)


def _levi_civita_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _phi_oracle():
    """Independent antisymmetrization of the seven monomials."""
    phi = np.zeros((7, 7, 7))
    for i, j, k, s in g2.PHI_MONOMIALS:
        base = (i - 1, j - 1, k - 1)
        for pos in itertools.permutations(range(3)):
            phi[base[pos[0]], base[pos[1]], base[pos[2]]] = s * _levi_civita_sign(pos)
    return phi


@cache
def _perm7():
    """The permutations of range(7) as rows, with their signs, from itertools."""
    perms = np.array(list(itertools.permutations(range(7))), dtype=np.intp)
    return perms, np.array([_levi_civita_sign(p) for p in perms], dtype=np.float64)


def _psi_oracle(phi):
    """Hodge dual *phi on the standard oriented frame."""
    psi = np.zeros((7, 7, 7, 7))
    for quad in itertools.permutations(range(7), 4):
        comp = [i for i in range(7) if i not in quad]
        psi[quad] = _levi_civita_sign(comp + list(quad)) * phi[tuple(comp)]
    return psi


def test_cross_basis_examples():
    assert np.allclose(g2.cross(E[0], E[1]), E[2])  # e1 x e2 = e3
    assert np.allclose(g2.cross(E[0], E[3]), -E[4])  # e1 x e4 = -e5


def test_cross_matches_independent_antisymmetrization():
    oracle = _phi_oracle()
    assert np.array_equal(g2.PHI, oracle)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v = rng.normal(size=(2, 7))
        assert np.allclose(g2.cross(u, v), np.einsum("ijk,i,j->k", oracle, u, v))


def test_cross_antisymmetry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.normal(size=7)
        assert np.linalg.norm(g2.cross(u, u)) < 1e-14


def test_phi_equals_cross_inner_product():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u, v, w = rng.normal(size=(3, 7))
        assert abs(g2.phi3(u, v, w) - np.dot(g2.cross(u, v), w)) < 1e-12


def test_cross_orthogonality_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u, v = rng.normal(size=(2, 7))
        c = g2.cross(u, v)
        assert abs(np.dot(c, u)) < 1e-12 * max(1.0, np.linalg.norm(u) ** 2 * np.linalg.norm(v))
        assert abs(np.dot(c, v)) < 1e-12 * max(1.0, np.linalg.norm(v) ** 2 * np.linalg.norm(u))


def test_associator_calibrated_plane():
    assert np.linalg.norm(g2.associator(E[0], E[1], E[2])) < 1e-14


def test_associator_degenerate_args():
    rng = np.random.default_rng(4)
    u, w = rng.normal(size=(2, 7))
    assert np.linalg.norm(g2.associator(u, u, w)) < 1e-12


def test_associator_norm_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = rng.normal(size=(3, 7))
        lhs = np.linalg.det(m @ m.T)
        assoc = g2.associator(*m)
        rhs = g2.phi3(*m) ** 2 + np.dot(assoc, assoc)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_psi_total_antisymmetry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        vs = rng.normal(size=(4, 7))
        base = g2.psi4(*vs)
        for perm in itertools.permutations(range(4)):
            val = g2.psi4(*(vs[p] for p in perm))
            assert abs(val - _levi_civita_sign(perm) * base) < 1e-10


def test_psi_is_hodge_dual_of_phi():
    assert np.allclose(g2.PSI, _psi_oracle(_phi_oracle()))


def test_tables_match_loop_builds():
    # reference: the tables built entry by entry with Python loops
    psi = np.zeros((7, 7, 7, 7))
    for i, j, k in itertools.product(range(7), repeat=3):
        psi[i, j, k, :] = g2.associator(E[i], E[j], E[k])
    assert np.array_equal(g2.PSI, psi)
    assert np.array_equal(g2.PHI, _phi_oracle())
    perms, signs = _perm7()
    table, table_signs = g2._permutations(7)
    assert np.array_equal(table, perms)
    assert np.array_equal(table_signs, signs)


def test_g2_identity_examples():
    assert abs(g2.g2_identity_residual(E[0], E[0])) < 1e-12
    assert abs(g2.g2_identity_residual(E[0], E[1])) < 1e-12


def test_g2_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        u, v = rng.normal(size=(2, 7))
        assert abs(g2.g2_identity_residual(u, v)) < 1e-12 * max(
            1.0, np.linalg.norm(u) * np.linalg.norm(v)
        )


def test_is_associative_frame_examples():
    assert g2.is_associative_frame((E[0], E[1], E[2]))
    assert not g2.is_associative_frame((E[0], E[1], E[3]))


def test_is_associative_oracle_psi_contraction():
    # associator norm recovered from the independently built psi tensor
    psi = _psi_oracle(_phi_oracle())
    u, v, w = E[0], E[1], E[3]
    comps = np.einsum("ijkl,i,j,k->l", psi, u, v, w)
    assert np.linalg.norm(comps) > 0.1  # (e1, e2, e4) is not associative
    assert np.allclose(comps, g2.associator(u, v, w))


def test_sl_plane_frames_are_associative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t1, t2 = rng.uniform(0.05, math.pi / 2, size=2)
        t3 = math.pi - t1 - t2
        frame = [g2.from_c3(np.exp(1j * np.array([t1, t2, t3])) * col) for col in np.eye(3)]
        assert g2.is_associative_frame(frame)


def test_degenerate_frame_raises():
    with pytest.raises(DegenerateFrame):
        g2.is_associative_frame((E[0], E[1], E[0] + E[1]))


def test_sl_residual_model_plane():
    assert g2.sl_residual([g2.from_c3(col) for col in np.eye(3)]) == (0.0, 0.0)


def test_sl_residual_rotated_plane():
    theta = np.array([0.8, 1.1, math.pi - 1.9])
    frame = [g2.from_c3(np.exp(1j * theta) * col) for col in np.eye(3)]
    om, im = g2.sl_residual(frame)
    assert om < 1e-12 and im < 1e-12


def test_sl_residual_detects_wrong_phase():
    # i * R^3 is Lagrangian but not special for phase 0
    frame = [g2.complex_structure(x) for x in g2.X_AXES]
    om, im = g2.sl_residual(frame)
    assert om < 1e-12
    assert im > 0.9


def test_complex_structure_squares_to_minus_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = g2.from_c3(z)
        assert np.allclose(g2.complex_structure(g2.complex_structure(v)), -v)
        assert np.allclose(g2.from_c3(1j * z), g2.complex_structure(v))
        assert np.allclose(g2.to_c3(v), z)


def test_kahler_form_volume_normalization():
    # omega^3 / 3! = vol on C^3: evaluate on the real/imaginary axes
    axes = []
    for k in range(3):
        axes.append(g2.X_AXES[k])
        axes.append(g2.Y_AXES[k])
    total = 0.0
    for perm in itertools.permutations(range(6)):
        sign = _levi_civita_sign(perm)
        total += (
            sign
            * g2.kahler_form(axes[perm[0]], axes[perm[1]])
            * g2.kahler_form(axes[perm[2]], axes[perm[3]])
            * g2.kahler_form(axes[perm[4]], axes[perm[5]])
        )
    total /= 8.0 * 6.0  # 2!^3 for the wedge of three 2-forms, then /3!
    vol = np.linalg.det(np.array(axes) @ np.array(axes).T) ** 0.5
    assert abs(total - vol) < 1e-12


def test_holomorphic_volume_against_complex_determinant():
    rng = np.random.default_rng(10)
    for _ in range(20):
        zs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        frame = [g2.from_c3(z) for z in zs]
        det = np.linalg.det(zs)
        vol = g2.holomorphic_volume(*frame)
        assert abs(vol - det) < 1e-10 * max(1.0, abs(det))


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------

def test_wedge_tensor_is_six_psi():
    # sum of sign(p) PHI[p4, p5, p6] over the permutations starting (i, j, k, l)
    # is 6 psi_ijkl, since psi = *phi: the table g2_identity_residual contracts
    p, signs = _perm7()
    w = np.zeros((7, 7, 7, 7))
    np.add.at(w, tuple(p[:, :4].T), signs * g2.PHI[p[:, 4], p[:, 5], p[:, 6]])
    assert np.array_equal(w, 6.0 * g2.PSI)


def _identity_residual_by_gather(u, v):
    """The residual from the 5,040-row permutation gather (the reference)."""
    a = np.einsum("ijk,i->jk", g2.PHI, u)
    b = np.einsum("ijk,i->jk", g2.PHI, v)
    p, signs = _perm7()
    terms = a[p[:, 0], p[:, 1]] * b[p[:, 2], p[:, 3]] * g2.PHI[p[:, 4], p[:, 5], p[:, 6]]
    return float(np.dot(signs, terms)) / 24.0 - 6.0 * float(np.dot(u, v))


def test_batched_identity_residual_matches_per_pair():
    u, v = np.random.default_rng(12).normal(size=(2, 200, 7))
    batch = g2.g2_identity_residual(u, v)
    assert batch.shape == (200,)
    singles = [g2.g2_identity_residual(x, y) for x, y in zip(u, v)]
    assert all(type(r) is float for r in singles)
    assert np.max(np.abs(batch - singles)) <= 1e-14
    gathered = [_identity_residual_by_gather(x, y) for x, y in zip(u[:20], v[:20])]
    assert np.max(np.abs(batch[:20] - gathered)) <= 1e-13


def test_batched_forms_match_single_vectors():
    u, v, w, z = np.random.default_rng(13).normal(size=(4, 50, 7))
    forms = (
        (g2.cross, (u, v)),
        (g2.phi3, (u, v, w)),
        (g2.psi4, (u, v, w, z)),
        (g2.associator, (u, v, w)),
        (g2.kahler_form, (u, v)),
        (g2.holomorphic_volume, (u, v, w)),
    )
    for form, args in forms:
        batch = form(*args)
        singles = [form(*row) for row in zip(*args)]
        assert np.max(np.abs(batch - np.array(singles))) <= 1e-14, form.__name__
    # single vectors keep their scalar return types
    assert type(g2.phi3(u[0], v[0], w[0])) is float
    assert type(g2.psi4(u[0], v[0], w[0], z[0])) is float
    assert type(g2.kahler_form(u[0], v[0])) is float
    assert type(g2.holomorphic_volume(u[0], v[0], w[0])) is complex
    # a batch of frames against one frame at a time
    frames = np.stack([u, v, w], axis=1)
    stacked = g2.orthonormalize(frames)
    assert np.max(np.abs(stacked - [g2.orthonormalize(f) for f in frames])) <= 1e-14
    # one degenerate frame in the batch is reported
    frames[7, 2] = frames[7, 0] + frames[7, 1]
    with pytest.raises(DegenerateFrame):
        g2.orthonormalize(frames)
