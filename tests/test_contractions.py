"""The chart-point contractions against their einsum references.

Each contraction the engine writes in a fixed tensordot / matmul order is
compared with the einsum reference in ``conftest`` on a curved chart and a
nonlinear submersion, where every Christoffel term and every derivative of
the O'Neill fields is nonzero; the two may differ only by rounding.
"""

import numpy as np
import pytest

from casoratiq import maps
from casoratiq.geometry import christoffel_with_grad
from casoratiq.maps import MapPoint
from casoratiq.quaternionic import QSFOracle, decompose_J, quat_units

from conftest import (
    covariant_reference,
    dgamma_reference,
    gamma_reference,
    ginv_jet_reference,
    j_blocks_reference,
    mgs2_frame,
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


@pytest.fixture(scope="module")
def split(point) -> maps.SceneSplit:
    # the bent map is no Riemannian submersion, which differential refuses, so the
    # frames are built here: the g-orthonormal kernel rows of dF, then its range rows
    g = point.source.G0
    rank = point.smap.rank
    vt = np.linalg.svd(point.dF)[2]
    full = mgs2_frame(np.concatenate([vt[rank:], vt[:rank]]), g)
    ell = len(vt) - rank
    return maps.SceneSplit(point, np.concatenate([full[ell:], full[:ell]]), None, 0.0, 0.0)


@pytest.fixture(scope="module")
def ref(point) -> dict:
    return oneill_reference(point)


def test_christoffel_symbols(point):
    src = point.source
    ginv_jet = ginv_jet_reference(src.G0, src.G1)
    assert_close(src.ginv, ginv_jet[0])
    assert_close(src.gamma, gamma_reference(ginv_jet[0], src._first_kind))
    dgamma = christoffel_with_grad(point.smap.source, point.x)[1]
    assert_close(dgamma, dgamma_reference(ginv_jet, src._first_kind, src.G2))


def test_curvature(point):
    # the direct formula against R assembled from the chart-basis gradient of Gamma
    src = point.source
    dgamma = dgamma_reference(ginv_jet_reference(src.G0, src.G1), src._first_kind, src.G2)
    assert_close(src.curvature.riemann, riemann_reference(src.gamma, dgamma, src.G0))


def test_oneill_fields(split, ref):
    # T over the vertical frame and A over the horizontal one, against the
    # chart-basis fields contracted on the split frames; the stored tensors carry
    # the exact (anti)symmetry, which the bent map's raw A lacks; at n = 3 the one
    # horizontal vector leaves no skew part
    cases = (("T", maps.oneill_T, split.vertical, 1.0), ("A", maps.oneill_A, split.horizontal, -1.0))
    for kind, fn, E, sign in cases:
        assert np.abs(ref["d" + kind]).max() > 0.0
        want = on_frames_reference(ref[kind], E, E)
        want = 0.5 * (want + sign * want.transpose(1, 0, 2))
        if len(E) > 1:
            assert_close(fn(split).vectors, want)
        else:
            assert not np.any(fn(split).vectors) and not np.any(want)


def test_projector_jet(split, ref):
    # P_h, its derivative along every frame vector, its mixed second derivative on the
    # (horizontal, vertical) pairs, N, L and Gamma_e, against the full chart-basis jets
    proj, E, s = split.projector, split.source_frame, split.s
    H, V = E[:s], E[s:]
    assert_close(proj.Ph, ref["Ph"])
    for key in ("dPh", "N", "L"):
        assert_close(getattr(proj, key), np.einsum("pab,ep->eab", ref[key], E))
    assert_close(proj.X, np.einsum("pqab,ip,jq->ijab", ref["ddPh"], H, V))
    assert_close(proj.gamma, np.einsum("kij,ei->ekj", split.point.source.gamma, E))


@pytest.mark.parametrize("kind", ["T", "A"])
def test_covariant_derivative(point, split, ref, kind):
    # the frame components of nabla T and nabla A, read off the frames alone,
    # against the chart-basis covariant derivative contracted on the frames
    g = point.source.G0
    H, V = split.horizontal, split.vertical
    nabla = covariant_reference(ref[kind], ref["d" + kind], point.source.gamma)
    got = maps._oneill_derivatives(split)[kind == "A"]
    if kind == "T":  # g((nabla_{h_i} T)(v_j, v_l), h_k)
        want = np.einsum("pkmn,ip,ka,jm,ln->ijal", nabla, H, g @ H.T, V, V)
    else:  # g((nabla_{v_j} A)(h_i, h_k), v_l)
        want = np.einsum("pkmn,jp,kl,im,an->ijal", nabla, V, g @ V.T, H, H)
    assert_close(got, want)


@pytest.mark.parametrize("kind", ["T", "A", "dPh"])
def test_fields_on_frames(split, ref, kind):
    # T_{v_j}, A_{h_i} and D_{h_i} P_h on every source frame vector, as the mixed
    # identity and the vertical bracket read them, against the chart-basis fields
    proj, E, s = split.projector, split.source_frame, split.s
    if kind == "dPh":
        S, along, got = ref["dPh"].transpose(1, 0, 2), E[:s], proj.dPh[:s]
    elif kind == "T":
        S, along, got = ref["T"], E[s:], proj.L[s:]
    else:
        S, along, got = ref["A"], E[:s], proj.L[:s]
    assert_close(maps._apply(got, E), on_frames_reference(S, along, E))


@pytest.mark.parametrize("n", DIMS)
def test_quaternionic_space_form_and_j_blocks(n):
    # n frame rows in the smallest quaternionic space that holds them, curved metric
    m = -(-n // 4)
    rng = np.random.default_rng(n)
    J = quat_units(m)
    B = rng.normal(size=(4 * m, 4 * m))
    g = np.eye(4 * m) + 0.1 * B @ B.T
    E = mgs2_frame(rng.normal(size=(n, 4 * m)), g)
    want = qsf_tensor_reference(-3.0, J, g, E)
    # the form's terms, as the residual subtracts them, cancel the reference's
    assert QSFOracle(-3.0, J, g).residual(want, E) <= RTOL * np.abs(want).max()
    blocks = decompose_J(J, g, E, n // 2).blocks
    assert_close(blocks, j_blocks_reference(J, g, E))
