import numpy as np
import pytest
from hypothesis import settings

from casoratiq.casorati import _GRAD_TOL, _Quartic, _newton_polish, _phi
from casoratiq.geometry import MetricChart, chart
from casoratiq.maps import SmoothMap
from casoratiq import jets

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


def orthonormal_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q.T


_DENSE_COUNT = 1 << 17  # 131072 >= 1e5 sphere directions
_DENSE_TOP = 8  # sampled directions per side handed to the Newton polish


def dense_extrema(h: np.ndarray) -> tuple[float, float]:
    """inf and sup C^L of a dense sphere sweep, its best directions Newton-polished.

    An evaluation path independent of the multi-start: 131072 fixed
    Gaussian directions, phi through ``_Quartic.products``, and the top 8
    of each side polished with ``_newton_polish``.  Every value it
    reports is phi at a unit normal, so it brackets the true extrema
    from inside.
    """
    n = h.shape[1]
    Q = _Quartic.of(h)
    z = np.random.default_rng(20240915 + 7 * n).standard_normal((_DENSE_COUNT, n))
    U = z / np.linalg.norm(z, axis=1, keepdims=True)
    vals = _phi(Q, Q.products(U)[1])
    top = np.concatenate([U[np.argsort(sign * vals)[:_DENSE_TOP]] for sign in (1.0, -1.0)])
    signs = np.repeat([1.0, -1.0], _DENSE_TOP)
    P, _ = _newton_polish(Q, top, signs, _GRAD_TOL * max(1.0, Q.total_sq))
    polished = _phi(Q, Q.products(P[:, None, :])[1])
    return (
        min(vals.min(), polished[:_DENSE_TOP].min()) / (n - 1),
        max(vals.max(), polished[_DENSE_TOP:].max()) / (n - 1),
    )
