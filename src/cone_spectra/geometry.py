"""Model geometries: Lawlor necks, the Harvey-Lawson cone and its AC
smoothings, and transverse SL planes: numerical construction, the
(a_1,a_2,a_3) <-> (theta_1,theta_2,theta_3) correspondence, and sampled
verification of calibration conditions and asymptotic decay rates.

The Lawlor neck with parameters a = (a_1, a_2, a_3) is

    z_k(y) = e^{i theta_k(y)} sqrt(1/a_k + y^2),
    theta_k(y) = a_k * Integral_{-inf}^{y} dx / ((1 + a_k x^2) sqrt(P(x))),

with P(x) = (prod_k (1 + a_k x^2) - 1) / x^2, a plain polynomial in x^2.
The angles theta_k = theta_k(+inf) always sum to pi and the conformal scale
is A = 4 pi / (3 sqrt(a_1 a_2 a_3)).  Every angle integral is an incomplete
elliptic integral, evaluated in closed form by Carlson's R_J
(:func:`cone_spectra.quadrature.carlson_rj`; G. Lawlor, The angle
criterion, Invent. Math. 95 (1989)).

Samples are arrays.  A sampler ``sample(n, seed)`` takes its random draws in
a fixed order and returns one SurfaceSample whose positions (n, 7), tangent
frames (n, k, 7) and cone points (n, 7) carry a leading sample axis; every
sampler produces frames of a single rank k.  ``hl_embed`` and
``lawlor_embed`` broadcast over their parameters: the smoothing and neck
samplers are the embeds at their draws, and scalar parameters give fields
without the sample axis.  ``verify_special_lagrangian`` orthonormalizes the
frames once and checks omega, Im Omega and the associator in one batched
pass of the :mod:`cone_spectra.g2` forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import g2
from .errors import DegenerateAngles, FitUnstable, NoConvergence, QuadratureFailure
from .quadrature import carlson_rj_sq

SUM_TOL = 1e-9
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class LawlorParams:
    a: tuple[float, float, float]

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        if len(a) != 3 or not all(math.isfinite(x) and x > 0 for x in a):
            raise ValueError("need three positive finite parameters")
        object.__setattr__(self, "a", a)
        # the angle integrals and the scale A need e1, e2, e3 as floats
        if not all(0.0 < e < math.inf for e in self.elementary_symmetric()):
            raise ValueError(f"a = {a}: e1, e2 and e3 must be positive finite floats")

    def elementary_symmetric(self) -> tuple[float, float, float]:
        a1, a2, a3 = self.a
        return (a1 + a2 + a3, a1 * a2 + a1 * a3 + a2 * a3, a1 * a2 * a3)

    def conformal_scale(self) -> float:
        """A = 4 pi / (3 sqrt(a_1 a_2 a_3))."""
        return 4.0 * math.pi / (3.0 * math.sqrt(self.a[0] * self.a[1] * self.a[2]))


@dataclass(frozen=True)
class LawlorAngles:
    theta: tuple[float, float, float]

    def __post_init__(self):
        theta = tuple(float(t) for t in self.theta)
        for t in theta:
            if not 0.0 < t < math.pi:
                raise DegenerateAngles(f"angle {t} outside (0, pi)")
        if abs(sum(theta) - math.pi) > SUM_TOL:
            raise ValueError(f"angles sum to {sum(theta)!r}, not pi (tol {SUM_TOL})")
        object.__setattr__(self, "theta", theta)


def lawlor_P(x, a: LawlorParams):
    """P(x) = (prod (1 + a_k x^2) - 1)/x^2 = e1 + e2 x^2 + e3 x^4 exactly."""
    e1, e2, e3 = a.elementary_symmetric()
    x2 = np.asarray(x, dtype=float) ** 2
    out = e1 + e2 * x2 + e3 * x2 * x2
    return out if out.shape else float(out)


def lawlor_tails(y, a: LawlorParams | np.ndarray) -> np.ndarray:
    """Tail angles a_k Integral_y^inf dx / ((1 + a_k x^2) sqrt(P(x))) for y >= 0.

    With s = x^2 and s_1, s_2 the roots of e3 s^2 + e2 s + e1 (both negative,
    or a conjugate pair), the tail is R_J(Y, Y - s_1, Y - s_2, Y + 1/a_k) /
    (3 sqrt(e3)) with Y = y^2.  ``a`` is a LawlorParams or parameter rows
    (..., 3), broadcast against y[..., None]; one neck gives y.shape + (3,).
    """
    a = np.array(a.a if isinstance(a, LawlorParams) else a)
    a1, a2, a3 = a[..., :1], a[..., 1:2], a[..., 2:]
    with np.errstate(all="ignore"):  # a huge y or an extreme a gives inf or nan: callers report it
        Y = np.asarray(y, dtype=float)[..., None] ** 2
        e1, e2, e3 = a1 + a2 + a3, a1 * a2 + a1 * a3 + a2 * a3, a1 * a2 * a3
        # R_J has degree -3/2: k = 4^-j (exact) near 1/sqrt(largest * smallest argument)
        u, v = e2 / e3, e1 / e3
        big, small = Y + u + 1.0 / a, Y + np.minimum(e1 / e2, 1.0 / a)
        j = (np.frexp(big)[1] + np.frexp(small)[1]) // 4
        x, k = np.ldexp(Y, -2 * j), np.ldexp(1.0, -2 * j)
        rj = carlson_rj_sq(x, 2.0 * x + u * k, x * (x + u * k) + v * k * k, x + k / a)
        return np.ldexp(rj, -3 * j) / (3.0 * np.sqrt(e3))


def lawlor_angles(a: LawlorParams) -> LawlorAngles:
    """The asymptotic angles theta_k(+inf) = 2 * tail(0); their sum pi is re-checked."""
    theta = 2.0 * lawlor_tails(0.0, a)
    try:
        return LawlorAngles(tuple(theta))
    except ValueError as exc:
        raise QuadratureFailure(f"angle sum failed the pi postcondition: {exc}") from exc


def lawlor_theta_at(y, a: LawlorParams) -> np.ndarray:
    """theta_k(y), shape y.shape + (3,): tail(|y|) for y <= 0, the total
    angle minus tail(y) for y > 0 (the integrand is even)."""
    y = np.asarray(y, dtype=float)
    tails = lawlor_tails(np.append(np.abs(y), 0.0), a)  # tail(0) is half the total angle
    total, tails = 2.0 * tails[-1], tails[:-1].reshape(y.shape + (3,))
    return np.where(y[..., None] > 0.0, total - tails, tails)


def _neck_radius(y, a: LawlorParams) -> np.ndarray:
    """|z_k(y)| = sqrt(1/a_k + y^2), shape y.shape + (3,); a huge y gives inf."""
    with np.errstate(over="ignore"):
        return np.sqrt(1.0 / np.array(a.a) + np.asarray(y, dtype=float)[..., None] ** 2)


def lawlor_theta_prime(y, a: LawlorParams) -> np.ndarray:
    """theta_k'(y), shape y.shape + (3,)."""
    y = np.asarray(y, dtype=float)[..., None]
    arr = np.array(a.a)
    return arr / ((1.0 + arr * y * y) * np.sqrt(lawlor_P(y, a)))


def lawlor_solve(target: LawlorAngles, A: float, tol: float = 1e-10) -> LawlorParams:
    """Invert the angle map at fixed conformal scale A.

    Damped Newton iteration on (log a_1, log a_2) with a finite-difference
    Jacobian, stopped once both angle residuals are below ``tol``; a_3 is
    eliminated through sqrt(a_1 a_2 a_3) = 4 pi / (3 A), so the A-relation
    holds exactly by construction.  A trial point and its four-point stencil
    are one R_J call, so an accepted step costs one call.
    """
    if not A > 0:
        raise ValueError("A must be positive")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    kappa = 4.0 * math.pi / (3.0 * A)  # sqrt(a1 a2 a3)
    if not (math.isfinite(kappa * kappa) and kappa * kappa > 0):
        raise ValueError(f"A = {A!r} puts a1 a2 a3 = (4 pi / 3A)^2 out of float range")

    def params(u):
        a1, a2 = math.exp(u[0]), math.exp(u[1])
        return LawlorParams((a1, a2, kappa * kappa / (a1 * a2)))

    step_h = 1e-5
    stencil = np.array([[0.0, 0.0], [step_h, 0.0], [-step_h, 0.0], [0.0, step_h], [0.0, -step_h]])

    def evaluate(u):  # the residual at u and its central-difference Jacobian
        rows = np.array([params(v).a for v in u + stencil])
        res = 2.0 * lawlor_tails(0.0, rows)[:, :2] - target.theta[:2]
        return res[0], np.column_stack([res[1] - res[2], res[3] - res[4]]) / (2.0 * step_h)

    u = np.log([kappa ** (2.0 / 3.0)] * 2)
    res, jac = evaluate(u)
    for _ in range(NEWTON_MAX_ITER):
        if float(np.max(np.abs(res))) < tol:
            return params(u)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(
                f"singular Jacobian at a = {params(u).a}", float(np.max(np.abs(res)))
            ) from exc
        # step halving until the residual norm decreases
        scale = 1.0
        for _ in range(30):
            u_new = u + scale * delta
            res_new, jac_new = evaluate(u_new)
            if np.linalg.norm(res_new) < np.linalg.norm(res):
                u, res, jac = u_new, res_new, jac_new
                break
            scale *= 0.5
        else:
            raise NoConvergence(
                "damping failed to reduce the angle residual",
                float(np.max(np.abs(res))),
            )
    raise NoConvergence(
        f"no convergence after {NEWTON_MAX_ITER} iterations",
        float(np.max(np.abs(res))),
    )


# ---------------------------------------------------------------------------
# sampled surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceSample:
    """Sampled surface points; each field may carry a leading sample axis."""

    position: np.ndarray  # (..., 7)
    frame: np.ndarray  # (..., k, 7) analytic tangent vectors
    cone_point: np.ndarray | None = None  # (..., 7); None on the cone itself


def _orthocomplement(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (tau_1, tau_2) completing unit 3-vectors sigma (..., 3)."""
    axis = np.eye(3)[np.argmin(np.abs(sigma), axis=-1)]
    t1 = axis - (axis * sigma).sum(axis=-1)[..., None] * sigma
    t1 /= np.linalg.norm(t1, axis=-1)[..., None]
    return t1, np.cross(sigma, t1)


def lawlor_embed(y, sigma, a: LawlorParams) -> SurfaceSample:
    """Points and analytic tangent frames of the Lawlor neck at y (...) and
    unit sigma (..., 3): positions (..., 7), frames (..., 3, 7).

    The recorded cone point is the foot of the position on the nearer
    asymptotic plane (Pi_0 for y <= 0, Pi_theta for y > 0).
    """
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(np.abs(np.linalg.norm(sigma, axis=-1) - 1.0) > 1e-9):
        raise ValueError("sigma must be a unit 3-vector")
    yy = y[..., None]
    rho = _neck_radius(y, a)
    # theta(+inf) is the total angle, so one R_J call serves the turn and the foot
    theta = lawlor_theta_at(np.append(y, np.inf), a)
    turn = np.exp(1j * theta[:-1].reshape(y.shape + (3,)))
    z = turn * rho
    dz = turn * (1j * lawlor_theta_prime(y, a) * rho + yy / rho)
    tau1, tau2 = _orthocomplement(sigma)
    point = z * sigma
    frames = g2.from_c3(np.stack([dz * sigma, z * tau1, z * tau2], axis=-2))
    # the foot on Pi_0 below the waist, on Pi_theta above it
    phases = np.exp(1j * theta[-1])
    foot = np.where(yy <= 0, point.real, phases * (np.conj(phases) * point).real)
    return SurfaceSample(g2.from_c3(point), frames, g2.from_c3(foot))


def lawlor_profile(a: LawlorParams, ys) -> list[dict]:
    """Profile rows (y, theta_k(y), |z_k(y)|) for CSV export."""
    ys = np.asarray(ys, dtype=float)
    theta = lawlor_theta_at(ys, a)
    rho = _neck_radius(ys, a)
    return [
        {
            "y": float(y),
            "theta1": t[0],
            "theta2": t[1],
            "theta3": t[2],
            "z1": r[0],
            "z2": r[1],
            "z3": r[2],
        }
        for y, t, r in zip(ys, theta, rho)
    ]


def lawlor_sampler(a: LawlorParams):
    """Points of the neck at y drawn asinh-uniformly in [-8, 8], with unit sigma."""

    def sample(n: int, seed: int) -> SurfaceSample:
        rng = np.random.default_rng(seed)
        big = math.asinh(8.0)
        ys, sigmas = [], []
        # per sample a uniform then three ziggurat normals, which take a
        # variable number of raw draws: this order has no batched form
        for _ in range(n):
            ys.append(math.sinh(rng.uniform(-big, big)))
            sigma = rng.normal(size=3)
            sigmas.append(sigma / np.linalg.norm(sigma))
        return lawlor_embed(ys, sigmas, a)

    return sample


# ---------------------------------------------------------------------------
# Harvey-Lawson cone and AC smoothings
# ---------------------------------------------------------------------------

def _torus_phases(alpha1, alpha2) -> np.ndarray:
    """(e^{i a1}, e^{i a2}, e^{-i(a1 + a2)}), shape alpha.shape + (3,)."""
    a1, a2 = np.asarray(alpha1, dtype=float), np.asarray(alpha2, dtype=float)
    return np.stack([np.exp(1j * a1), np.exp(1j * a2), np.exp(-1j * (a1 + a2))], axis=-1)


def _hl_raw(r, theta1, theta2, a: float):
    """Branch-1 points (..., 3) and tangents (..., 3, 3) along (r, theta1,
    theta2), before the cyclic coordinate shift."""
    r, theta1, theta2 = np.broadcast_arrays(np.asarray(r, dtype=float), theta1, theta2)
    s = np.sqrt(r * r + a)
    e = _torus_phases(theta1, theta2)
    e1, e2, e3 = e[..., 0], e[..., 1], e[..., 2]
    zero = np.zeros_like(e1)
    w = np.stack([s * e1, r * e2, r * e3], axis=-1)
    dr = np.stack([r / s * e1, e2, e3], axis=-1)
    dt1 = np.stack([1j * s * e1, zero, -1j * r * e3], axis=-1)
    dt2 = np.stack([zero, 1j * r * e2, -1j * r * e3], axis=-1)
    return w, np.stack([dr, dt1, dt2], axis=-2)


def _check_hl(branch: int, a: float) -> None:
    """Harvey-Lawson branches are 1, 2 and 3, and a is finite and >= 0."""
    if branch not in (1, 2, 3):
        raise ValueError(f"branch must be 1, 2 or 3, got {branch}")
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"need a finite a >= 0, got {a}")


def hl_embed(r, theta1, theta2, branch: int = 1, a: float = 1.0) -> SurfaceSample:
    """The Harvey-Lawson AC special Lagrangian L^branch_a at (r, theta1,
    theta2), broadcast together: positions (..., 7), tangent frames
    (..., 3, 7) and matched cone points (..., 7).

    Branches 2 and 3 are the cyclic coordinate shifts of branch 1; a = 0
    degenerates onto the T^2-cone.  The rescaling law is eps L^k_a = L^k_{eps^2 a}.
    """
    _check_hl(branch, a)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("need r > 0")
    w, tangents = _hl_raw(r, theta1, theta2, a)
    shift = branch - 1
    cone = np.roll(hl_cone_point(r, theta1, theta2), shift, axis=-1)
    position = g2.from_c3(np.roll(w, shift, axis=-1))
    frames = g2.from_c3(np.roll(tangents, shift, axis=-1))
    return SurfaceSample(position, frames, g2.from_c3(cone))


def hl_cone_point(r, alpha1, alpha2) -> np.ndarray:
    """Cone point r*(e^{i a1}, e^{i a2}, e^{-i(a1+a2)}) as a complex triple
    (shape alpha.shape + (3,) for arrays)."""
    return np.asarray(r, dtype=float)[..., None] * _torus_phases(alpha1, alpha2)


def _real_dot(u: np.ndarray, v: np.ndarray):
    """Re <u, v> of complex vectors over the last axis."""
    return (u * np.conj(v)).real.sum(axis=-1)


def _hl_cone_tangent_frame(alpha1, alpha2) -> np.ndarray:
    """Orthonormal real basis (..., 3, 3) of the cone tangent at (alpha1,
    alpha2): Gram-Schmidt on the (r, alpha1, alpha2) tangents, which do not
    depend on r."""
    frame = []
    for v in np.moveaxis(_hl_raw(1.0, alpha1, alpha2, 0.0)[1], -2, 0):
        for q in frame:
            v = v - _real_dot(v, q)[..., None] * q
        frame.append(v / np.sqrt(_real_dot(v, v))[..., None])
    return np.stack(frame, axis=-2)


def _hl_offset(r, a: float):
    """sqrt(r^2 + a) - r as a / (sqrt(r^2 + a) + r): no cancellation, no r^2."""
    h = np.hypot(r, math.sqrt(a))
    return (a / h) / (1.0 + r / h)


def hl_normal_deviation(branch: int, r, alpha1, alpha2, a: float = 1.0) -> np.ndarray:
    """Deviation of L^branch_a from its matched cone point, projected onto the
    cone's normal space: complex triples (..., 3), broadcast over r and the
    angles.  L^k leaves the cone only in its k-th coordinate, by
    (sqrt(r^2 + a) - r) e^{i alpha_k}."""
    _check_hl(branch, a)
    phases = _torus_phases(alpha1, alpha2)
    offset = _hl_offset(np.asarray(r, dtype=float), a)[..., None]
    dev = offset * phases * (np.arange(3) == branch - 1)
    frame = _hl_cone_tangent_frame(alpha1, alpha2)
    return dev - (_real_dot(dev[..., None, :], frame)[..., None] * frame).sum(axis=-2)


def hl_xi_relation_residual(r_probe: float, seed: int = 0, a: float = 1.0) -> float:
    """Largest norm of the normal projection of xi_1 + xi_2 + xi_3 at six matched points.

    The three per-coordinate deviations sum to a radial vector, so the
    residual sits at rounding level and is bounded by C / r_probe^2.
    """
    a1, a2 = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(6, 2)).T
    total = sum(hl_normal_deviation(k, r_probe, a1, a2, a) for k in (1, 2, 3))
    return float(np.sqrt(_real_dot(total, total)).max(initial=0.0))


def hl_branch_deviation_magnitude(r_probe: float, a: float = 1.0) -> float:
    """|Phi_k(r, .) - cone point| for one branch (= sqrt(r^2 + a) - r)."""
    _check_hl(1, a)
    return float(_hl_offset(r_probe, a))


def _radius_angle_draws(rng, n: int, r_range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per sample a log-uniform radius in r_range, then two uniform angles in
    [0, 2 pi): the values and order of 3n scalar ``rng.uniform`` draws."""
    lo, hi = math.log(r_range[0]), math.log(r_range[1])
    draws = rng.uniform((lo, 0.0, 0.0), (hi, 2.0 * math.pi, 2.0 * math.pi), size=(n, 3))
    # math.exp as the scalar draws took it: numpy's exp can differ in the last bit
    return np.array(list(map(math.exp, draws[:, 0].tolist()))), draws[:, 1], draws[:, 2]


def hl_smoothing_sampler(branch: int, a: float = 1.0):
    """Points of L^branch_a with r drawn log-uniformly in [0.05, 20]."""

    def sample(n: int, seed: int) -> SurfaceSample:
        r, theta1, theta2 = _radius_angle_draws(np.random.default_rng(seed), n, (0.05, 20.0))
        return hl_embed(r, theta1, theta2, branch, a)

    return sample


def hl_cone_sampler():
    """Points of the T^2-cone with |position| = r drawn log-uniformly in [0.5, 2]."""

    def sample(n: int, seed: int) -> SurfaceSample:
        r, a1, a2 = _radius_angle_draws(np.random.default_rng(seed), n, (0.5, 2.0))
        positions = g2.from_c3(hl_cone_point(r / math.sqrt(3.0), a1, a2))
        return SurfaceSample(positions, g2.from_c3(_hl_cone_tangent_frame(a1, a2)))

    return sample


def hl_link_sampler():
    """Rank-2 tangent frames of the Clifford-torus link in S^5."""

    def sample(n: int, seed: int) -> SurfaceSample:
        a1, a2 = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(n, 2)).T
        positions = g2.from_c3(hl_cone_point(1.0 / math.sqrt(3.0), a1, a2))
        return SurfaceSample(positions, g2.from_c3(_hl_cone_tangent_frame(a1, a2)[..., 1:, :]))

    return sample


# ---------------------------------------------------------------------------
# calibration verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationReport:
    max_omega: float
    max_im_omega: float
    max_associator: float
    phase: float
    n_samples: int


def verify_special_lagrangian(sampler, n_samples: int, seed: int) -> CalibrationReport:
    """Max calibration residuals over seeded samples of one model family.

    The (n, k, 7) frames are orthonormalized and checked in one batched
    pass.  For k = 3 the special Lagrangian phase is fitted from the first
    sample and then frozen; rank-2 (link) frames only contribute the
    Lagrangian omega-residual.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    f = g2.orthonormalize(sampler(n_samples, seed).frame)
    i, j = np.triu_indices(f.shape[-2], 1)
    max_omega = float(np.abs(g2.kahler_form(f[:, i], f[:, j])).max())
    phase = max_im = max_assoc = 0.0
    if f.shape[-2] == 3:
        vol = g2.holomorphic_volume(f[:, 0], f[:, 1], f[:, 2])
        phase = -math.atan2(vol[0].imag, vol[0].real)
        rotated = vol * complex(math.cos(phase), math.sin(phase))
        max_im = float(np.abs(rotated.imag).max())
        assoc = g2.associator(f[:, 0], f[:, 1], f[:, 2])
        max_assoc = float(np.linalg.norm(assoc, axis=-1).max())
    return CalibrationReport(
        max_omega=max_omega,
        max_im_omega=max_im,
        max_associator=max_assoc,
        phase=phase,
        n_samples=len(f),
    )


# ---------------------------------------------------------------------------
# asymptotic decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    fitted_exponent: float
    r_range: tuple[float, float]
    residual_of_fit: float


def fit_decay(radii, norms) -> DecayFit:
    radii = np.asarray(radii, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if len(radii) < 8:
        raise ValueError("decay fits need at least 8 radii")
    if not (np.isfinite(radii).all() and np.isfinite(norms).all()):
        raise FitUnstable("non-finite radius or deviation; nothing to fit")
    if np.any(norms <= 0.0):
        raise FitUnstable("deviation vanished; nothing to fit")
    x, y = np.log(radii), np.log(norms)
    # full=True returns the rank where polyfit would warn; rank 1 is no slope
    fit = np.polyfit(x, y, 1, full=True) if np.ptp(x) > 0 else None
    if fit is None or fit[2] < 2:
        raise FitUnstable(f"radii {radii.min():g} to {radii.max():g} span no positive log range")
    slope, intercept = fit[0]
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    if resid > 0.1:
        raise FitUnstable(f"log-log fit residual {resid:.3g} > 0.1")
    return DecayFit(
        fitted_exponent=float(slope),
        r_range=(float(radii.min()), float(radii.max())),
        residual_of_fit=resid,
    )


def lawlor_decay_table(
    a: LawlorParams,
    r_window=(8.0, 120.0),
    n_radii: int = 12,
    subtract_leading: bool = False,
    seed: int = 0,
) -> tuple[list[float], list[float]]:
    """(radius, |normal deviation|) samples of the Lawlor end over its plane.

    At |y| = r the end's phase over its plane is tail(r) on either side
    (theta_k(-r) at the lower end, theta_k(inf) - theta_k(r) at the upper),
    so one table describes both ends.
    """
    rng = np.random.default_rng(seed)
    sigma = rng.normal(size=3)
    sigma /= np.linalg.norm(sigma)
    # the last row, at twice the outer radius, calibrates the leading term
    r = np.append(np.geomspace(r_window[0], r_window[1], n_radii), 2.0 * r_window[1])
    phases = lawlor_tails(r, a)
    rho = _neck_radius(r, a)
    # a huge r gives inf or nan, which fit_decay reports
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.cos(phases) * rho * sigma  # footpoints in the plane, real coordinates
        w = np.sin(phases) * rho * sigma  # i-direction (normal) coordinates
        radii = np.linalg.norm(x, axis=1)
        if subtract_leading:
            model = x / radii[:, None] ** 3  # the r^-3 (i x) leading term
            coeff = np.dot(w[-1], model[-1]) / np.dot(model[-1], model[-1])
            w = w - coeff * model
        norms = np.linalg.norm(w, axis=1)
    return [float(v) for v in radii[:-1]], [float(v) for v in norms[:-1]]


def lawlor_decay_fit(*args, **kwargs) -> DecayFit:
    """Decay rate of the Lawlor end over its asymptotic plane, fitted to
    ``lawlor_decay_table(*args, **kwargs)``.

    Without subtraction the normal deviation decays like r^-2; after fitting
    and removing the leading r^-3 (i x) term the remainder decays like r^-4
    for generic parameters.  The leading coefficient is calibrated outside
    the fit window (at twice the outer radius) so the remainder slope stays
    clean.  For the fully symmetric neck the r^-4 term vanishes too
    (Im(z1 z2 z3) is a first integral) and the subtracted remainder decays
    like r^-8.
    """
    return fit_decay(*lawlor_decay_table(*args, **kwargs))


def hl_decay_table(
    branch: int = 1,
    a: float = 1.0,
    r_window=(10.0, 200.0),
    n_radii: int = 12,
    alphas=(0.7, 1.3),
) -> tuple[list[float], list[float]]:
    radii = np.geomspace(r_window[0], r_window[1], n_radii)
    dev = hl_normal_deviation(branch, radii, alphas[0], alphas[1], a)
    return radii.tolist(), np.sqrt(_real_dot(dev, dev)).tolist()


def hl_decay_fit(*args, **kwargs) -> DecayFit:
    """Decay rate (r^-1) of a Harvey-Lawson smoothing over the T^2-cone,
    fitted to ``hl_decay_table(*args, **kwargs)``."""
    return fit_decay(*hl_decay_table(*args, **kwargs))


# ---------------------------------------------------------------------------
# transverse SL planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanePair:
    frame_zero: np.ndarray  # (3, 7)
    frame_theta: np.ndarray  # (3, 7)
    normal: np.ndarray  # Vec7, = e_1
    theta: tuple[float, float, float]


def transverse_plane_pair(theta) -> PlanePair:
    """Frames of Pi_0 = R^3 and Pi_theta = diag(e^{i theta_k}) R^3 in R^7.

    Raises DegenerateAngles when some theta_k touches {0, pi} (the planes
    then share a line and the splitting R^7 = <n> + Pi_0 + Pi_theta fails).
    """
    angles = tuple(float(t) for t in theta)
    if abs(sum(angles) - math.pi) > SUM_TOL:
        raise ValueError("plane angles must sum to pi")
    for t in angles:
        if min(abs(t), abs(t - math.pi)) < 1e-9 or not (0.0 <= t <= math.pi):
            raise DegenerateAngles(f"angle {t} in {{0, pi}}: planes share a line")
    frame_zero = np.array([g2.from_c3(col) for col in np.eye(3)])
    frame_theta = np.array(
        [g2.from_c3(np.exp(1j * np.array(angles)) * col) for col in np.eye(3)]
    )
    if not (g2.is_associative_frame(frame_zero) and g2.is_associative_frame(frame_theta)):
        raise AssertionError("SL planes failed the associativity check")
    stacked = np.vstack([frame_zero, frame_theta])
    if np.linalg.matrix_rank(stacked, tol=1e-9) != 6:
        raise DegenerateAngles("planes intersect nontrivially")
    return PlanePair(
        frame_zero=frame_zero,
        frame_theta=frame_theta,
        normal=g2.E1.copy(),
        theta=angles,
    )


def jordan_angles(frame_a, frame_b) -> np.ndarray:
    """Principal angles between two 3-planes, ascending, in [0, pi/2]."""
    qa = g2.orthonormalize(frame_a)
    qb = g2.orthonormalize(frame_b)
    svals = np.linalg.svd(qa @ qb.T, compute_uv=False)
    return np.sort(np.arccos(np.clip(svals, -1.0, 1.0)))
