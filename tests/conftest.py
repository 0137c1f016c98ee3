import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import settings

from casoratiq.casorati import (
    _GRAD_TOL,
    CasoratiInput,
    _Quartic,
    _RowState,
    _column_state,
    _newton_polish,
    casorati,
    delta_casorati,
    hyperplane_extrema,
)
from casoratiq.errors import CasoratiqError, DimensionError, DomainError, OptimizationError
from casoratiq.geometry import CurvaturePoint, MetricChart, chart
from casoratiq.inequalities import FAMILIES, SceneData, checker_inputs
from casoratiq.jets import Jet2, seed_point
from casoratiq.maps import SmoothMap
from casoratiq.quaternionic import JDecomposition, quat_units
from casoratiq import jets

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from hp_chunk import hp_metric  # noqa: E402

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def flat_positive_chart(n: int, lo: float = 0.05, hi: float = 3.0) -> MetricChart:
    """Flat chart on a box away from the origin (radial maps need |x| > 0)."""
    def g(coords):
        m = len(coords)
        return [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]

    return MetricChart(n, tuple((lo, hi) for _ in range(n)), g, name=f"flat-positive:{n}")


@pytest.fixture(scope="session")
def radial_map() -> SmoothMap:
    src = flat_positive_chart(4)
    tgt = MetricChart(1, ((0.05, 6.0),), lambda c: [[1.0]], name="flat-line")
    return SmoothMap(src, tgt, lambda c: [jets.jet_norm(c)],
                     "riemannian_submersion", 1, "radial:4")


@pytest.fixture(scope="session")
def hopf_map() -> SmoothMap:
    def F(c):
        a, b, cc, d = c
        return [a * a + b * b - cc * cc - d * d,
                2 * (a * d + b * cc),
                2 * (b * d - a * cc)]

    def g2(c):
        f = 1.0 / (4.0 * jets.jet_norm(c))
        return [[f, 0.0, 0.0], [0.0, f, 0.0], [0.0, 0.0, f]]

    src = flat_positive_chart(4, 0.1, 1.5)
    tgt = MetricChart(3, ((-4.0, 4.0), (0.02, 7.0), (-4.0, 4.0)), g2, name="hopf-base")
    return SmoothMap(src, tgt, F, "riemannian_submersion", 3, "hopf-radial:4to3")


@pytest.fixture(scope="session")
def paraboloid_map() -> SmoothMap:
    def g1(c):
        u, v = c
        return [[1.0 + u * u, u * v], [u * v, 1.0 + v * v]]

    src = MetricChart(2, ((-2.0, 2.0), (-2.0, 2.0)), g1, name="paraboloid-graph")
    return SmoothMap(src, chart("flat:3"),
                     lambda c: [c[0], c[1], 0.5 * (c[0] * c[0] + c[1] * c[1])],
                     "riemannian_map", 2, "paraboloid-vertex")


@pytest.fixture(scope="session")
def projection_map() -> SmoothMap:
    return SmoothMap(chart("flat:8"), chart("flat:4"), lambda c: list(c[:4]),
                     "riemannian_submersion", 4, "product-projection:8to4")


def registry_closure(name: str) -> MetricChart:
    """The registry chart ``name`` with its metric as the Python closure the engine
    used before the registry compiled metric texts, kept as the oracle of their jets."""
    kind, _, param = name.partition(":")
    if kind == "flat":
        def g(coords):
            m = len(coords)
            return [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    elif kind == "sphere":
        r = float(param)

        def g(coords):
            s = jets.sin(coords[0])
            return [[r * r, 0.0], [0.0, r * r * s * s]]
    elif kind == "sphere3":
        r = float(param)

        def g(coords):
            s1, s2 = jets.sin(coords[0]), jets.sin(coords[1])
            return [
                [r * r, 0.0, 0.0],
                [0.0, r * r * s1 * s1, 0.0],
                [0.0, 0.0, r * r * s1 * s1 * s2 * s2],
            ]
    elif kind == "half-plane":
        def g(coords):
            inv = 1.0 / (coords[1] * coords[1])
            return [[inv, 0.0], [0.0, inv]]
    elif kind == "polar":
        def g(coords):
            r = coords[0]
            return [[1.0, 0.0], [0.0, r * r]]
    else:
        raise KeyError(name)
    registry = chart(name)
    return MetricChart(registry.dim, registry.domain, g, name=registry.name)


def orthonormal_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q.T


def orthonormality_residual(E: np.ndarray, g: np.ndarray) -> float:
    """Largest entry of E g E^T - I: how far the rows of E (k, n) are from g-orthonormal."""
    return float(np.abs(E @ g @ E.T - np.eye(len(E))).max())


def mgs2_frame(vectors, g: np.ndarray, candidates=()) -> np.ndarray:
    """g-orthonormal rows of ``vectors`` (k, n) at one point, one vector at a time.

    Each vector loses its g-projections on the rows before it, in order,
    in two passes of modified Gram-Schmidt, and is then normalized.  The
    ``candidates`` then complete the frame: each is projected the same
    way and kept when its remaining g-norm exceeds 1e-8, until the frame
    has n rows.  The engine once built its frames this way; the tests use it
    to build frames where no split applies and as the oracle of the span of
    range_perp.
    """
    n = g.shape[-1]
    rows: list[np.ndarray] = []

    def project(v):
        for _ in range(2):
            for e in rows:
                v = v - (e @ g @ v) * e
        return v

    for v in np.asarray(vectors, dtype=float):
        v = project(v)
        rows.append(v / np.sqrt(v @ g @ v))
    for v in np.asarray(candidates, dtype=float):
        if len(rows) == n:
            break
        v = project(v)
        norm = np.sqrt(max(v @ g @ v, 0.0))
        if norm > 1e-8:
            rows.append(v / norm)
    return np.array(rows).reshape(-1, n)


_DENSE_COUNT = 1 << 17  # 131072 >= 1e5 sphere directions
_DENSE_TOP = 8  # sampled directions per side handed to the Newton polish


def scene_data(kind, E, s, tensors, g, J, c, ambient=None, **settings) -> SceneData:
    """The ``SceneData`` of one point, built by ``checker_inputs`` as a chunk of one.

    ``E`` is the split frame (k, n), its first ``s`` rows the first frame
    of the kind, ``tensors`` maps names to coefficients (a, m, m) and
    ``ambient`` is a chart's frame tensor, or None for the space form.
    The extrema and the diagnostics are those that every family of the
    kind reads.
    """
    families = [f for f in FAMILIES if (f == "map") == (kind == "map")]
    (data,) = checker_inputs(
        kind, np.asarray(E, dtype=float)[None], s,
        {key: np.asarray(h, dtype=float)[None] for key, h in tensors.items()}, g[None], J, c,
        families, None if ambient is None else ambient[None], **settings,
    )
    return data


def dense_extrema(h: np.ndarray) -> tuple[float, float]:
    """inf and sup C^L of a dense sphere sweep, its best directions Newton-polished.

    An evaluation path independent of the multi-start: 131072 fixed
    Gaussian directions, phi through ``_column_state``, and the top 8
    of each side polished with ``_newton_polish``.  Every value it
    reports is phi at a unit normal, so it brackets the true extrema
    from inside.
    """
    n = h.shape[1]
    Q = _Quartic.of(h)
    z = np.random.default_rng(20240915 + 7 * n).standard_normal((_DENSE_COUNT, n))
    U = z / np.linalg.norm(z, axis=1, keepdims=True)
    vals = _column_state(Q, U.T, Q.signs(np.ones(len(U))))[0]
    top = np.concatenate([U[np.argsort(sign * vals)[:_DENSE_TOP]] for sign in (1.0, -1.0)])
    signs = np.repeat([1.0, -1.0], _DENSE_TOP)
    P = _newton_polish(Q, top, signs, _GRAD_TOL * max(1.0, Q.total_sq))[0]
    polished = _RowState.at(Q, P, Q.signs(np.ones(len(P)))).value
    return (
        min(vals.min(), polished[:_DENSE_TOP].min()) / (n - 1),
        max(vals.max(), polished[_DENSE_TOP:].max()) / (n - 1),
    )


# -- einsum references of the chart-point contractions ------------------------
# The engine contracts these in a fixed tensordot / matmul order; each
# reference writes the same sum as einsum, one subscript string per term.


def random_submersion(n: int, seed: int) -> SmoothMap:
    """A submersion of a curved n-chart onto flat:(n - 2) with a nonlinear map.

    The source metric is I + u u^T with u_a = 0.3 sin(w_a . x + phi_a), so
    its Christoffel symbols and their derivatives do not vanish, and
    F_a = x_a + 0.2 sin(v_a . x) bends the horizontal distribution.
    """
    rng = np.random.default_rng(seed)
    W = (rng.normal(size=(n, n)) / np.sqrt(n)).tolist()
    V = (rng.normal(size=(n - 2, n)) / np.sqrt(n)).tolist()
    phase = rng.uniform(0.0, np.pi, size=n).tolist()

    def g(c):
        u = [0.3 * jets.sin(sum(w * x for w, x in zip(W[a], c)) + phase[a]) for a in range(n)]
        return [[(1.0 if a == b else 0.0) + u[a] * u[b] for b in range(n)] for a in range(n)]

    def F(c):
        return [c[a] + 0.2 * jets.sin(sum(v * x for v, x in zip(V[a], c))) for a in range(n - 2)]

    src = MetricChart(n, ((-1.0, 1.0),) * n, g, name=f"curved:{n}")
    return SmoothMap(src, chart(f"flat:{n - 2}"), F, "riemannian_submersion", n - 2, f"bent:{n}")


def gamma_reference(ginv: np.ndarray, first_kind: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("kl,ijl->kij", ginv, first_kind)


def ginv_jet_reference(G0: np.ndarray, G1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(g^kl, d_m g^kl)`` at one point, from d g^-1 = -g^-1 (d g) g^-1."""
    ginv = np.linalg.inv(G0)
    return ginv, -np.einsum("kl,lqm,qj->mkj", ginv, G1, ginv)


def dgamma_reference(ginv_jet: tuple, first_kind: np.ndarray, G2: np.ndarray) -> np.ndarray:
    DD = np.transpose(G2, (3, 2, 0, 1))  # DD[m, i, j, l] = d_m d_i g_jl
    Am = DD + DD.transpose(0, 2, 1, 3) - DD.transpose(0, 2, 3, 1)
    return 0.5 * (
        np.einsum("mkl,ijl->mkij", ginv_jet[1], first_kind)
        + np.einsum("kl,mijl->mkij", ginv_jet[0], Am)
    )


def riemann_reference(gamma: np.ndarray, dgamma: np.ndarray, G0: np.ndarray) -> np.ndarray:
    rup = (
        np.transpose(dgamma, (0, 2, 3, 1))
        - np.transpose(dgamma, (2, 0, 3, 1))
        + np.einsum("pjk,mip->ijkm", gamma, gamma)
        - np.einsum("pik,mjp->ijkm", gamma, gamma)
    )
    return np.einsum("ijkm,ml->ijkl", rup, G0)


def field_reference(X, dX, L, dL) -> tuple[np.ndarray, np.ndarray]:
    dS = np.einsum("pbm,bkn->pkmn", dX, L) + np.einsum("bm,pbkn->pkmn", X, dL)
    return np.einsum("bm,bkn->kmn", X, L), dS


def _jet_product(a: tuple, b: tuple) -> tuple:
    """Leibniz rule to second order for matrix jets ``(M, dM[p], d2M[p, q])``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        a0 @ b0,
        np.einsum("pij,jk->pik", a1, b0) + np.einsum("ij,pjk->pik", a0, b1),
        np.einsum("pqij,jk->pqik", a2, b0) + np.einsum("ij,pqjk->pqik", a0, b2)
        + np.einsum("pij,qjk->pqik", a1, b1) + np.einsum("qij,pjk->pqik", a1, b1),
    )


def _jet_inverse(a: tuple) -> tuple:
    a0, a1, a2 = a
    x0 = np.linalg.inv(a0)
    x1 = -np.einsum("ij,pjk,kl->pil", x0, a1, x0)
    x2 = -np.einsum(
        "ij,pqjk->pqik", x0,
        np.einsum("pqjk,kl->pqjl", a2, x0)
        + np.einsum("pjk,qkl->pqjl", a1, x1) + np.einsum("qjk,pkl->pqjl", a1, x1),
    )
    return x0, x1, x2


def oneill_reference(pt) -> dict:
    """The horizontal projector and the O'Neill fields of a submersion ``MapPoint`` on the
    chart basis, with their coordinate derivatives: ``Ph``, ``dPh``, ``ddPh``, ``N``,
    ``L``, ``T``, ``dT``, ``A`` and ``dA``, the derivative axes first.

    P_h = W (J W)^-1 J with W = g^-1 J^T to second order through full
    matrix jets, N[b] = nabla_b P_h, L[b] = (1 - 2 P_h) N[b], T = Q^b L[b]
    and A = P_h^b L[b], each written as einsum.
    """
    src = pt.source
    g = (src.G0, np.moveaxis(src.G1, 2, 0), np.moveaxis(src.G2, (2, 3), (0, 1)))
    J = (pt.dF, np.moveaxis(pt.d2F, 2, 0), np.moveaxis(pt.d3F, (2, 3), (0, 1)))
    Jt = tuple(np.swapaxes(m, -1, -2) for m in J)
    W = _jet_product(_jet_inverse(g), Jt)
    P0, P1, P2 = _jet_product(_jet_product(W, _jet_inverse(_jet_product(J, W))), J)
    Gb = np.swapaxes(src.gamma, 0, 1)  # Gb[b, a, n] = Gamma^a_bn
    ginv_jet = ginv_jet_reference(src.G0, src.G1)
    dGb = np.swapaxes(dgamma_reference(ginv_jet, src._first_kind, src.G2), 1, 2)
    Q0 = np.eye(len(P0)) - P0
    R = Q0 - P0
    N = P1 + np.einsum("ban,nc->bac", Gb, P0) - np.einsum("an,bnc->bac", P0, Gb)
    dN = (
        P2 + np.einsum("pban,nc->pbac", dGb, P0) + np.einsum("ban,pnc->pbac", Gb, P1)
        - np.einsum("pan,bnc->pbac", P1, Gb) - np.einsum("an,pbnc->pbac", P0, dGb)
    )
    L = np.einsum("ka,ban->bkn", R, N)
    dL = np.einsum("ka,pban->pbkn", R, dN) - 2.0 * np.einsum("pka,ban->pbkn", P1, N)
    T, dT = field_reference(Q0, -P1, L, dL)
    A, dA = field_reference(P0, P1, L, dL)
    return {
        "Ph": P0, "dPh": P1, "ddPh": P2, "N": N, "L": L, "T": T, "dT": dT, "A": A, "dA": dA,
    }


def covariant_reference(S: np.ndarray, dS: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    return (
        dS
        + np.einsum("kpa,amn->pkmn", gamma, S)
        - np.einsum("apm,kan->pkmn", gamma, S)
        - np.einsum("kma,apn->pkmn", S, gamma)
    )


def on_frames_reference(S: np.ndarray, E: np.ndarray, F: np.ndarray) -> np.ndarray:
    return np.einsum("kmn,im,jn->ijk", S, E, F)


def qsf_tensor_reference(c: float, J: np.ndarray, g: np.ndarray, E: np.ndarray) -> np.ndarray:
    """``QSFOracle(c, J, g).curvature_tensor(E)`` as one outer product per term and J."""
    G = E @ g @ E.T
    R = np.einsum("bc,ad->abcd", G, G) - np.einsum("ac,bd->abcd", G, G)
    for Ja in J:
        X = E @ g @ Ja @ E.T  # X[a,b] = g(e_a, Ja e_b)
        Y = -X  # Y[a,b] = g(Ja e_a, e_b)
        R += (
            np.einsum("ac,bd->abcd", X, Y)
            - np.einsum("bc,ad->abcd", X, Y)
            + 2.0 * np.einsum("ab,cd->abcd", X, Y)
        )
    return 0.25 * c * R


def j_blocks_reference(J: np.ndarray, g: np.ndarray, E: np.ndarray) -> np.ndarray:
    """``decompose_J(...).blocks``: g(e_a, J_x e_b) over the rows of E."""
    return np.einsum("an,xnm,bm->xab", E, np.einsum("nk,xkm->xnm", g, J), E)


# -- oracles and test-only helpers -------------------------------------------


def casorati_subspace(inp: CasoratiInput, indices=None, normal=None) -> float:
    """Casorati curvature of a subspace.

    Either restrict to coordinate ``indices`` (k >= 2 of them) or hand a
    unit ``normal`` whose orthogonal hyperplane is meant; the projector
    route reduces to the coordinate one when the normal is a basis vector.
    """
    if (indices is None) == (normal is None):
        raise ValueError("pass exactly one of indices / normal")
    h = inp.coeffs
    if indices is not None:
        idx = np.asarray(indices, dtype=int)
        k = idx.shape[0]
        if k < 2:
            raise DimensionError(f"subspace dimension {k} < 2")
        sub = h[:, idx[:, None], idx[None, :]]
        return float(np.sum(sub**2)) / k
    u = np.asarray(normal, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise DimensionError("hyperplane normal must be a unit vector")
    if inp.n < 2:
        raise DimensionError("hyperplane of a 1-dimensional space")
    P = np.eye(inp.n) - np.outer(u, u)
    proj = np.einsum("ij,ajk,kl->ail", P, h, P)
    return float(np.sum(proj**2)) / (inp.n - 1)


def plane_area_sq(g: np.ndarray, u, v) -> float:
    """Squared g-area of the parallelogram on u and v; raises when it is degenerate."""
    area = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    if not area > 0:
        raise DimensionError("sectional curvature of a degenerate 2-plane")
    return float(area)


def sectional(curvature, u, v) -> float:
    """Sectional curvature of the plane on u and v, from a ``CurvaturePoint`` or a ``QSFOracle``."""
    if isinstance(curvature, CurvaturePoint):
        area = plane_area_sq(curvature.metric, u, v)
        return float(np.einsum("ijkl,i,j,k,l->", curvature.riemann, u, v, v, u)) / area
    return curvature.quad(u, v, v, u) / plane_area_sq(curvature.g, u, v)


def j_totals(d: JDecomposition) -> np.ndarray:
    """|J_alpha|^2 over the whole split frame, one entry per alpha."""
    return np.array([float(np.sum(b * b)) for b in d.blocks])


class ProvisoError(CasoratiqError):
    """Closed-form minimizer requested outside its validity condition."""


@dataclass(frozen=True)
class TripathiInstance:
    """min of lam1 sum_{i<n} t_i^2 + lam2 t_n^2 - 2 sum_{i<j} t_i t_j on sum t = k."""

    n: int
    k: float
    lam1: float
    lam2: float

    def __post_init__(self):
        if self.n < 3:
            raise DimensionError(f"n must be >= 3, got {self.n}")
        if self.lam1 <= 0 or self.lam2 <= 0:
            raise ProvisoError("lam1 and lam2 must be positive")

    @classmethod
    def from_lam1(cls, n: int, k: float, lam1: float) -> "TripathiInstance":
        if lam1 <= n - 2:
            raise ProvisoError(f"lam1 = {lam1} must exceed n - 2 = {n - 2}")
        return cls(n, k, lam1, (n - 1) / (lam1 - n + 2))

    def proviso_holds(self, rtol: float = 1e-12) -> bool:
        target = (self.n - 1) / (self.lam1 - self.n + 2)
        return abs(self.lam2 - target) <= rtol * max(1.0, abs(target))


def tripathi_objective(inst: TripathiInstance, t: np.ndarray) -> np.ndarray:
    """Objective value(s); accepts a single point or a batch of rows."""
    t = np.asarray(t, dtype=float)
    single = t.ndim == 1
    t = np.atleast_2d(t)
    sq = t**2
    quad = inst.lam1 * sq[:, :-1].sum(axis=1) + inst.lam2 * sq[:, -1]
    s = t.sum(axis=1)
    cross = s * s - sq.sum(axis=1)  # 2 sum_{i<j} t_i t_j
    out = quad - cross
    return float(out[0]) if single else out


def tripathi_minimize(inst: TripathiInstance) -> tuple[np.ndarray, float]:
    """Closed-form global minimizer, valid only under the proviso."""
    if not inst.proviso_holds():
        raise ProvisoError(
            "closed form requires lam2 = (n-1)/(lam1-n+2); "
            f"got lam1={inst.lam1}, lam2={inst.lam2}"
        )
    t = np.full(inst.n, inst.k / (inst.lam1 + 1.0))
    t[-1] = inst.k / (inst.lam2 + 1.0)
    if abs(t.sum() - inst.k) > 1e-12 * max(1.0, abs(inst.k)):
        raise ProvisoError("closed-form point does not satisfy the constraint")
    return t, tripathi_objective(inst, t)


def tripathi_minimize_numeric(
    inst: TripathiInstance, tol: float = 1e-13, max_iters: int = 20000
) -> tuple[np.ndarray, float]:
    """Projected-gradient minimizer on the hyperplane (oracle path).

    Exact line search along the projected gradient; independent of the
    closed form.
    """
    n = inst.n
    t = np.full(n, inst.k / n)
    diag = np.full(n, inst.lam1 + 1.0)
    diag[-1] = inst.lam2 + 1.0
    scale = max(1.0, abs(inst.k))
    for _ in range(max_iters):
        # f = sum diag t^2 - (sum t)^2 on the constraint; grad = 2 diag t - 2k
        grad = 2.0 * diag * t - 2.0 * inst.k
        d = grad - grad.mean()
        gnorm = np.linalg.norm(d)
        if gnorm < tol * scale:
            break
        # exact step for the quadratic: alpha = (d.g) / (2 d^T H d / 2)
        hd = 2.0 * diag * d - 2.0 * d.sum()  # H d with H = 2 diag - 2 ones
        denom = float(d @ hd)
        if denom <= 0:
            raise OptimizationError("quadratic not convex along descent direction")
        t = t - (float(d @ grad) / denom) * d
    return t, tripathi_objective(inst, t)


def eval_jet2(field: Callable, x: Sequence[float], domain=None) -> Jet2:
    """Evaluate a scalar field to third order at ``x``.

    ``field`` receives a list of jets and must return a jet or a plain
    number (constant fields).  When ``domain`` is given as a sequence of
    open intervals, the point must lie strictly inside.
    """
    x = np.asarray(x, dtype=float)
    if domain is not None:
        for xi, (lo, hi) in zip(x, domain):
            if not (lo < xi < hi):
                raise DomainError(f"coordinate {xi} outside open interval ({lo}, {hi})")
    out = field(seed_point(x))
    if not isinstance(out, Jet2):
        out = Jet2.constant(float(out), x.shape[0])
    out.hess = 0.5 * (out.hess + out.hess.T)
    return out


def algebraic_gap(B: CasoratiInput):
    """Purely algebraic core of the map inequality.

    Returns (lhs, rhs_delta, rhs_delta_hat) with
    lhs = (|trace B|^2 - |B|^2) / (s (s - 1)); for every B the lhs is
    bounded by both delta-Casorati right sides.
    """
    s = B.n
    if s < 3:
        raise DimensionError(f"algebraic gap needs s >= 3, got {s}")
    lhs = (B.trace_norm_sq() - B.norm_sq()) / (s * (s - 1))
    C = casorati(B)
    ex = hyperplane_extrema(B)
    delta, delta_hat = delta_casorati(C, ex, s)
    return lhs, delta, delta_hat


def hp_metric_entries(m: int) -> list[str]:
    """The 16 m^2 expression entries, row by row, of the metric of HP^m (c = 4) on its
    affine chart, for the structure ``quat_units(m)``."""
    return [entry for row in hp_metric(quat_units(m)) for entry in row]
