"""Triangle meshes and the numeric Laplace spectrum fallback.

The discrete operator is the cotangent-weight Laplacian (Pinkall-Polthier)
with lumped (barycentric diagonal) mass, assembled as a sparse matrix.  The
generalized problem L x = lambda M x is reduced by M^{-1/2} to a sparse
symmetric one A.  A is permuted once by reverse Cuthill-McKee, and every
factorization of a shifted A is one symmetric set-up: SuperLU with diagonal
pivots (an L D L^T factor) on the minimum-degree order of A + A^T.  ARPACK
finds the lowest eigenvalues in shift-invert mode about a small negative
shift, through one such factor, kept until a request finds a gap.  It is
released before an inertia count (Sylvester's law) from a factor at the gap
certifies that no copy of a multiple eigenvalue was missed.  No n x n dense
matrix is formed unless the request reaches the top of the spectrum.  Only
intrinsic data (triangle edge lengths) enter, so vertices may live in any
ambient R^d with d >= 3; the flat Clifford-torus sample needs d = 6.

scipy is imported inside the functions that use it, so importing the package
does not load it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMesh, NoConvergence
from .spectra import Spectrum

AREA_TOL = 1e-14
CLUSTER_REL_GAP = 1e-3
# shift-invert about sigma = -SHIFT / total area: below the zero eigenvalue,
# on the scale of the low spectrum of a closed surface (lambda_1 ~ 1 / area)
SHIFT = 1e-2
# relative spectral gap at which an inertia count certifies the eigensolve
INERTIA_GAP = 1e-3


@dataclass(frozen=True)
class TriMesh:
    """Closed oriented manifold triangle mesh."""

    vertices: np.ndarray  # (nv, d), d >= 3
    faces: np.ndarray  # (nf, 3) int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=int)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        if v.ndim != 2 or v.shape[1] < 3:
            raise InvalidMesh("vertices must be an (nv, d>=3) array")
        if not np.all(np.isfinite(v)):
            raise InvalidMesh("non-finite vertex coordinate")
        if f.ndim != 2 or f.shape[1] != 3:
            raise InvalidMesh("faces must be an (nf, 3) array")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise InvalidMesh("face index out of range")
        self._check_structure()

    def _check_structure(self):
        f = self.faces
        if len(f) == 0:
            raise InvalidMesh("mesh has no faces")
        with np.errstate(over="ignore", invalid="ignore"):
            areas = self.face_areas()
        if not np.all(np.isfinite(areas)):
            raise InvalidMesh("face area overflows (vertex coordinates too large)")
        if np.any(areas <= AREA_TOL):
            raise InvalidMesh("degenerate face (area <= 1e-14)")
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])):
            raise InvalidMesh("face with repeated vertex")
        # directed edges (a, b), (b, c), (c, a) encoded as tail * nv + head
        nv = len(self.vertices)
        tails, heads = f.ravel(), f[:, [1, 2, 0]].ravel()
        directed = np.sort(tails * nv + heads)
        if np.any(directed[1:] == directed[:-1]):
            raise InvalidMesh("non-manifold or inconsistently oriented edge")
        # closed and oriented: every directed edge is matched by its reverse,
        # that is (the edges being distinct) the reversed edges are the edges
        if not np.array_equal(np.sort(heads * nv + tails), directed):
            raise InvalidMesh("open boundary edge")

    def face_areas(self) -> np.ndarray:
        p = self.vertices
        a = p[self.faces[:, 1]] - p[self.faces[:, 0]]
        b = p[self.faces[:, 2]] - p[self.faces[:, 0]]
        # Gram determinant works in any ambient dimension
        aa = np.einsum("ij,ij->i", a, a)
        bb = np.einsum("ij,ij->i", b, b)
        ab = np.einsum("ij,ij->i", a, b)
        g = np.maximum(aa * bb - ab * ab, 0.0)
        return 0.5 * np.sqrt(g)


def load_off(path) -> TriMesh:
    """Read an OFF file ("OFF", counts, vertex lines, face lines "3 i j k")."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise InvalidMesh("OFF file is not UTF-8 text") from None
    if "#" in text:
        text = re.sub("#[^\n]*", "", text)
    tokens = text.split()
    if not tokens or tokens[0] != "OFF":
        raise InvalidMesh("not an OFF file (missing header)")
    try:
        nv, nf, _ne = (int(t) for t in tokens[1:4])
    except ValueError:
        raise InvalidMesh("OFF header needs integer vertex, face and edge counts") from None
    if nv < 0 or nf < 0:
        raise InvalidMesh("OFF vertex and face counts must be non-negative")
    expected = 4 + 3 * nv + 4 * nf
    if len(tokens) != expected:
        raise InvalidMesh(
            f"OFF file with {nv} vertices and {nf} triangles needs {expected} tokens, "
            f"found {len(tokens)}"
        )
    try:
        verts = np.array(tokens[4 : 4 + 3 * nv], dtype=float).reshape(nv, 3)
    except ValueError:
        raise InvalidMesh("OFF vertex coordinates must be numbers") from None
    try:
        records = np.array(tokens[4 + 3 * nv :], dtype=np.int64).reshape(nf, 4)
    except ValueError:
        raise InvalidMesh("OFF face records must be integers") from None
    except OverflowError:
        raise InvalidMesh("face index out of range") from None
    if np.any(records[:, 0] != 3):
        raise InvalidMesh("only triangle faces are supported")
    return TriMesh(verts, records[:, 1:])


def save_off(mesh: TriMesh, path) -> None:
    if mesh.vertices.shape[1] != 3:
        raise InvalidMesh("OFF export requires 3D vertices")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def cotangent_laplacian(mesh: TriMesh):
    """Sparse (CSR) cotangent-weight stiffness matrix and lumped mass vector."""
    import scipy.sparse

    p, f = mesh.vertices, mesh.faces
    nv = len(p)
    areas = mesh.face_areas()
    rows, cols, weights = [], [], []
    for c in range(3):
        a, b, o = f[:, c], f[:, (c + 1) % 3], f[:, (c + 2) % 3]
        # half the cot of the angle at o, opposite the edge (a, b)
        w = np.einsum("ij,ij->i", p[a] - p[o], p[b] - p[o]) / (4.0 * areas)
        rows += [a, b, a, b]
        cols += [b, a, a, b]
        weights += [-w, -w, w, w]
    L = scipy.sparse.coo_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nv, nv),
    ).tocsr()
    mass = np.bincount(f.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=nv)
    return L, mass


def _cluster(eigenvalues: np.ndarray, scale: float) -> tuple[tuple[float, int], ...]:
    """Split sorted eigenvalues at gaps above CLUSTER_REL_GAP * max(scale, ev);
    with ``scale`` = 1 / total area the clusters do not depend on units."""
    entries: list[tuple[float, int]] = []
    group: list[float] = []
    for ev in eigenvalues:
        if group and ev - group[-1] > CLUSTER_REL_GAP * max(scale, abs(ev)):
            entries.append((float(np.mean(group)), len(group)))
            group = []
        group.append(float(ev))
    if group:
        entries.append((float(np.mean(group)), len(group)))
    return tuple(entries)


def _factor(A, shift: float):
    """SuperLU factor of the sparse symmetric matrix A - shift I.

    Diagonal pivots (threshold 0) in symmetric mode on the minimum-degree
    order of A + A^T: P (A - shift I) P^T = L D L^T with U = D L^T, which
    serves as a shift-invert operator and gives the inertia of A - shift I.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    shifted = (A - shift * scipy.sparse.identity(A.shape[0], format="csc")).tocsc()
    return scipy.sparse.linalg.splu(
        shifted,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _count_below(A, tau: float) -> int:
    """Number of eigenvalues of the sparse symmetric matrix A below ``tau``:
    by Sylvester's law of inertia, the negative entries of D in the L D L^T
    factor of A - tau I."""
    return int(np.count_nonzero(_factor(A, tau).U.diagonal() < 0.0))


def _lowest_eigenvalues(A, count: int, sigma: float) -> np.ndarray:
    """The ``count`` lowest eigenvalues of the sparse symmetric matrix A.

    A is first permuted to reverse Cuthill-McKee order, and the start vector
    with it, so the eigenvalues and (in exact arithmetic) the Krylov sequence
    do not change.  ARPACK (shift-invert about ``sigma``, below the spectrum)
    can return a member of the next cluster in place of one copy of a
    multiple eigenvalue.  So the answer is certified: at the first gap at or
    above the last eigenvalue wanted, an inertia count must find no
    eigenvalue that ARPACK missed.  Until it does, the request is doubled.
    The factor of A - sigma I serves every request up to the one whose gap
    is checked, and is released before the certificate factors A - tau I, so
    one factor is alive at a time (a failed certificate factors A - sigma I
    again).
    """
    import scipy.sparse.csgraph
    import scipy.sparse.linalg

    n = A.shape[0]
    # a fixed start vector keeps reruns bit-identical (ARPACK's is random)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    order = scipy.sparse.csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    A, v0 = A[order][:, order], v0[order]
    OPinv = None
    k = count + 1
    while k < n:
        if OPinv is None:
            OPinv = scipy.sparse.linalg.LinearOperator(
                (n, n), matvec=_factor(A, sigma).solve, dtype=A.dtype
            )
        try:
            vals = scipy.sparse.linalg.eigsh(
                A, k=k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv,
                return_eigenvectors=False,
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NoConvergence(f"eigensolver did not converge: {exc}") from None
        vals = np.sort(vals)
        upper = vals[count - 1 :]
        gaps = np.flatnonzero(np.diff(upper) > INERTIA_GAP * (upper[1:] - sigma))
        if gaps.size:
            below = count + int(gaps[0])  # vals[:below] lie below the gap
            OPinv = None  # frees the sigma factor before the certificate's is built
            if _count_below(A, 0.5 * (vals[below - 1] + vals[below])) == below:
                return vals[:count]
        k = min(2 * k, n - 1) if k < n - 1 else n
    # ARPACK needs k < n: a request that reaches the top of the spectrum is
    # a dense problem
    return np.linalg.eigvalsh(A.toarray())[:count]


def mesh_spectrum(mesh: TriMesh, count: int) -> Spectrum:
    """Lowest ``count`` Laplace eigenvalues of a closed mesh.

    Multiplicities are clustered with relative gap 1e-3, on a scale no
    smaller than 1 / total area (so a scaled mesh clusters alike); the result
    is marked inexact and its cutoff is the largest computed eigenvalue.
    """
    import scipy.sparse

    nv = len(mesh.vertices)
    if not 1 <= count <= nv:
        raise ValueError("count must be between 1 and the vertex count")
    L, mass = cotangent_laplacian(mesh)
    s = scipy.sparse.diags(1.0 / np.sqrt(mass))
    A = s @ L @ s
    A = 0.5 * (A + A.T)
    area = mass.sum()
    vals = _lowest_eigenvalues(A.tocsc(), count, sigma=-SHIFT / area)
    if vals[0] < -1e-9:
        raise InvalidMesh(f"negative eigenvalue {vals[0]:g}; mesh badly conditioned")
    vals = np.maximum(vals, 0.0)
    return Spectrum(entries=_cluster(vals, 1.0 / area), cutoff=float(vals[-1]), exact=False)


# ---------------------------------------------------------------------------
# built-in meshes
# ---------------------------------------------------------------------------

def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row over its length, bit for bit as ``row / np.linalg.norm(row)``
    (einsum and ``norm(axis=1)`` round differently; the loop-build test checks this)."""
    return v / np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]


def icosphere(refinements: int) -> TriMesh:
    """Unit sphere obtained by subdividing the icosahedron ``refinements`` times."""
    if refinements < 0:
        raise ValueError(f"refinements must be >= 0, got {refinements}")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = _unit_rows(np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]))
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ])
    for _ in range(refinements):
        nv = len(verts)
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)  # edges ab, bc, ca of each face
        _, first, inverse = np.unique(
            ends.min(axis=1) * nv + ends.max(axis=1), return_index=True, return_inverse=True
        )
        # each edge's midpoint vertex, numbered in the order the faces first meet the edges
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        ab, bc, ca = (nv + rank[inverse]).reshape(-1, 3).T
        edges = ends[np.sort(first)]
        verts = np.concatenate([verts, _unit_rows(verts[edges[:, 0]] + verts[edges[:, 1]])])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return TriMesh(verts, faces)


def clifford_torus_mesh(n: int) -> TriMesh:
    """Regular n x n grid sample of the unit-norm Clifford torus link in R^6."""
    if n < 3:
        raise ValueError("need n >= 3")
    thetas = 2.0 * math.pi * np.arange(n) / n
    t1, t2 = np.meshgrid(thetas, thetas, indexing="ij")
    z = (1.0 / math.sqrt(3.0)) * np.stack(
        [np.exp(1j * t1), np.exp(1j * t2), np.exp(-1j * (t1 + t2))], axis=-1
    )
    verts = np.concatenate([z.real, z.imag], axis=-1).reshape(n * n, 6)
    # grid square (i, j) with corners a = (i, j), b = (i+1, j), c = (i+1, j+1)
    # and d = (i, j+1) splits into the triangles (a, b, c) and (a, c, d)
    i, j = np.divmod(np.arange(n * n), n)
    a = i * n + j
    b = (i + 1) % n * n + j
    c = (i + 1) % n * n + (j + 1) % n
    d = i * n + (j + 1) % n
    faces = np.stack([a, b, c, a, c, d], axis=1).reshape(2 * n * n, 3)
    return TriMesh(verts, faces)
