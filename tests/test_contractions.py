"""The chart-point contractions against their einsum references.

Each contraction the engine writes in a fixed tensordot / matmul order is
compared with the einsum reference in ``conftest`` on a curved chart and a
nonlinear submersion, where every Christoffel term and every derivative of
the O'Neill fields is nonzero; the two may differ only by rounding.
"""

import numpy as np
import pytest

from casoratiq import maps
from casoratiq.geometry import OrthoFrame, christoffel_with_grad, complete_frame, gram_schmidt
from casoratiq.maps import MapPoint
from casoratiq.quaternionic import QSFOracle, decompose_J, quat_units

from conftest import (
    covariant_reference,
    dgamma_reference,
    gamma_reference,
    j_blocks_reference,
    on_frames_reference,
    oneill_reference,
    qsf_tensor_reference,
    random_submersion,
    riemann_reference,
)

DIMS = (3, 5, 8, 12)
RTOL = 1e-13


def assert_close(got, want):
    scale = np.abs(want).max()
    assert scale > 0.0, "the reference is zero, so the comparison shows nothing"
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * scale


@pytest.fixture(scope="module", params=DIMS, ids=lambda n: f"n{n}")
def point(request) -> MapPoint:
    n = request.param
    x = np.random.default_rng(100 + n).uniform(-0.5, 0.5, size=n)
    return MapPoint.at(random_submersion(n, seed=n), x)


def test_christoffel_symbols(point):
    src = point.source
    assert_close(src.gamma, gamma_reference(src.ginv_jet[0], src._first_kind))
    dgamma = christoffel_with_grad(point.smap.source, point.x)[1]
    assert_close(dgamma, dgamma_reference(src.ginv_jet, src._first_kind, src.G2))


def test_curvature(point):
    # the direct formula against R assembled from the chart-basis gradient of Gamma
    src = point.source
    dgamma = dgamma_reference(src.ginv_jet, src._first_kind, src.G2)
    assert_close(src.curvature.riemann, riemann_reference(src.gamma, dgamma, src.G0))


def test_oneill_fields(point):
    ref = oneill_reference(point)
    for kind in ("T", "A"):
        assert np.abs(ref["d" + kind]).max() > 0.0
        assert_close(getattr(point.submersion, kind), ref[kind])


@pytest.mark.parametrize("kind", ["T", "A"])
def test_covariant_derivative(point, kind):
    # the frame components of nabla T and nabla A, read off the frames alone,
    # against the chart-basis covariant derivative contracted on the frames;
    # the bent map is no Riemannian submersion, so the frames are built here
    g = point.source.G0
    rank = point.smap.rank
    vt = np.linalg.svd(point.dF)[2]
    vertical = gram_schmidt(vt[rank:], g)
    horizontal = OrthoFrame(complete_frame(vertical, vt[:rank]).vectors[vertical.k :], g)
    split = maps.SceneSplit(point, vertical, horizontal, None, None, 0.0, 0.0)
    H, V = horizontal.vectors, vertical.vectors
    ref = oneill_reference(point)
    nabla = covariant_reference(ref[kind], ref["d" + kind], point.source.gamma)
    got = maps._oneill_derivatives(split)[kind == "A"]
    if kind == "T":  # g((nabla_{h_i} T)(v_j, v_l), h_k)
        want = np.einsum("pkmn,ip,ka,jm,ln->ijal", nabla, H, g @ H.T, V, V)
    else:  # g((nabla_{v_j} A)(h_i, h_k), v_l)
        want = np.einsum("pkmn,jp,kl,im,an->ijal", nabla, V, g @ V.T, H, H)
    assert_close(got, want)


@pytest.mark.parametrize("kind", ["T", "A", "dPh"])
def test_fields_on_frames(point, kind):
    S = getattr(point.submersion, kind)
    if kind == "dPh":
        S = S.transpose(1, 0, 2)  # as vertical_bracket reads it
    rng = np.random.default_rng(S.shape[0])
    E, F = rng.normal(size=(2, S.shape[0] - 1, S.shape[0]))
    assert_close(maps._on_frames(S, E, F), on_frames_reference(S, E, F))


@pytest.mark.parametrize("n", DIMS)
def test_quaternionic_space_form_and_j_blocks(n):
    # n frame rows in the smallest quaternionic space that holds them, curved metric
    m = -(-n // 4)
    rng = np.random.default_rng(n)
    J = quat_units(m)
    B = rng.normal(size=(4 * m, 4 * m))
    g = np.eye(4 * m) + 0.1 * B @ B.T
    E = gram_schmidt(rng.normal(size=(n, 4 * m)), g).vectors
    got = QSFOracle(-3.0, J, g).curvature_tensor(E)
    assert_close(got, qsf_tensor_reference(-3.0, J, g, E))
    blocks = decompose_J(J, g, E[: n // 2], E[n // 2 :]).blocks
    assert_close(blocks, j_blocks_reference(J, g, E))
