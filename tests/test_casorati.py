import importlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casoratiq.casorati import (
    CasoratiInput,
    casorati,
    delta_casorati,
    hyperplane_extrema,
    _Quartic,
    _BURN_IN,
    _GRAD_TOL,
    _POLISH_COUNT,
    _POLISH_ITERS,
    _START_COUNT,
    _START_SEED,
    _TIE_VALUE,
    _RowState,
    _coef,
    _dot,
    _grad,
    _hess,
    _multistart_extrema,
    _newton_steps,
    _phi,
    _scale_exponents,
    _search,
    _signed_phi_grad,
    _sphere_starts,
    _starts,
)
from casoratiq.cli import main
from casoratiq.errors import DimensionError, OptimizationError
from casoratiq.scenes import evaluate_scenario, parse_scenario, random_pointwise_submersion

from conftest import (
    ProvisoError,
    TripathiInstance,
    casorati_subspace,
    tripathi_minimize,
    tripathi_minimize_numeric,
    tripathi_objective,
)

# the package attribute ``casoratiq.casorati`` is the function of that name
casorati_module = importlib.import_module("casoratiq.casorati")


def skew_coeffs(rng, n_alpha, n):
    raw = rng.uniform(-1.0, 1.0, size=(n_alpha, n, n))
    return 0.5 * (raw - raw.transpose(0, 2, 1))


def assert_audit_shape(ex, path):
    assert ex.audit["path"] == path
    for side in ("min", "max"):
        for key in ("iterations", "converged_starts"):
            assert type(ex.audit[side][key]) is int


def sym_input(rng, n_alpha, n):
    raw = rng.uniform(-1.0, 1.0, size=(n_alpha, n, n))
    return CasoratiInput(0.5 * (raw + raw.transpose(0, 2, 1)))


class TestCasorati:
    def test_zero(self):
        assert casorati(CasoratiInput(np.zeros((2, 3, 3)))) == 0.0

    def test_diag_example(self):
        assert casorati(CasoratiInput(np.diag([1.0, 1.0, 2.0]))) == pytest.approx(2.0)

    def test_umbilical_vertical(self):
        # radial-submersion T at r = 1: three umbilical entries
        assert casorati(CasoratiInput(np.eye(3))) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            CasoratiInput(np.zeros((1, 0, 0)))

    def test_symmetry_enforced(self):
        with pytest.raises(DimensionError):
            CasoratiInput(np.array([[0.0, 1.0], [0.5, 0.0]]))
        CasoratiInput(np.array([[0.0, 1.0], [-1.0, 0.0]]), kind="skew")


class TestSubspace:
    def test_coordinate_hyperplanes(self):
        inp = CasoratiInput(np.diag([1.0, 1.0, 2.0]))
        assert casorati_subspace(inp, indices=[0, 1]) == pytest.approx(1.0)
        assert casorati_subspace(inp, indices=[1, 2]) == pytest.approx(2.5)

    def test_normal_matches_coordinate(self):
        inp = CasoratiInput(np.diag([1.0, 1.0, 2.0]))
        e3 = np.array([0.0, 0.0, 1.0])
        assert casorati_subspace(inp, normal=e3) == pytest.approx(
            casorati_subspace(inp, indices=[0, 1]), abs=1e-12
        )

    def test_projector_vs_rotated_basis(self):
        inp = CasoratiInput(np.diag([1.0, 1.0, 2.0]))
        u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        via_projector = casorati_subspace(inp, normal=u)
        # restrict to an orthonormal basis of the hyperplane
        w = np.array([[1.0, -1.0, 0.0] / np.sqrt(2.0), [0.0, 0.0, 1.0]])
        M = np.einsum("in,anm,jm->aij", w, inp.coeffs, w)
        assert via_projector == pytest.approx(float(np.sum(M**2)) / 2.0, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_projector_path_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        inp = sym_input(rng, int(rng.integers(1, 4)), n)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        via_projector = casorati_subspace(inp, normal=u)
        Q, _ = np.linalg.qr(np.vstack([u, np.eye(n)[:-1]]).T)
        w = Q[:, 1:].T  # orthonormal basis of the hyperplane
        M = np.einsum("in,anm,jm->aij", w, inp.coeffs, w)
        assert via_projector == pytest.approx(float(np.sum(M**2)) / (n - 1), abs=1e-10)

    def test_errors(self):
        inp = CasoratiInput(np.diag([1.0, 1.0, 2.0]))
        with pytest.raises(DimensionError):
            casorati_subspace(inp, indices=[0])
        with pytest.raises(DimensionError):
            casorati_subspace(inp, normal=np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            casorati_subspace(inp)


class TestExtrema:
    def test_diag_example(self):
        ex = hyperplane_extrema(CasoratiInput(np.diag([1.0, 1.0, 2.0])))
        assert ex.inf_CL == pytest.approx(1.0, abs=1e-9)
        assert ex.sup_CL == pytest.approx(2.5, abs=1e-9)
        assert abs(ex.argmin_normal[2]) == pytest.approx(1.0, abs=1e-6)
        assert ex.audit["path"] == "exact"

    def test_zeros(self):
        ex = hyperplane_extrema(CasoratiInput(np.zeros((1, 3, 3))))
        assert ex.inf_CL == 0.0 and ex.sup_CL == 0.0

    @pytest.mark.parametrize("n", range(3, 13))
    def test_zero_stacks_take_the_eigenpairs_of_eigh(self, n):
        """An all-zero stack's M = 0 takes (0, I) with no eigh: the bits that eigh gives
        it, alone and among other matrices in one stacked call."""
        rng = np.random.default_rng(n)
        mats = np.zeros((3, n, n))
        mats[0] = rng.normal(size=(n, n))
        mats[0] += mats[0].T
        for stack in (mats[1:2], mats):
            lam, V = np.linalg.eigh(stack)
            assert lam[-1].tobytes() == np.zeros(n).tobytes()
            assert V[-1].tobytes() == np.eye(n).tobytes()
        for kind, h in (("symmetric", np.zeros((2, n, n))), ("skew", np.zeros((n, n, n)))):
            got = hyperplane_extrema(CasoratiInput(h, kind))
            assert got.inf_CL == got.sup_CL == 0.0 and got.audit["path"] == "exact"
            assert got.argmin_normal.tobytes() == np.eye(n)[:, -1].tobytes()
            assert got.argmax_normal.tobytes() == np.eye(n)[:, 0].tobytes()

    def test_umbilical_constant(self):
        ex = hyperplane_extrema(CasoratiInput(np.eye(4)))
        assert ex.inf_CL == pytest.approx(1.0, abs=1e-10)
        assert ex.sup_CL == pytest.approx(1.0, abs=1e-10)
        assert ex.degenerate_min and ex.degenerate_max

    def test_random_hyperplanes_bracketed(self):
        rng = np.random.default_rng(77)
        inp = sym_input(rng, 2, 4)
        ex = hyperplane_extrema(inp)
        for _ in range(100):
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            val = casorati_subspace(inp, normal=u)
            assert ex.inf_CL - 1e-9 <= val <= ex.sup_CL + 1e-9

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            hyperplane_extrema(CasoratiInput(np.eye(2)))

    def test_audit_fields(self):
        ex = hyperplane_extrema(sym_input(np.random.default_rng(8), 2, 3))
        assert ex.audit["starts"] == 64
        assert "start_index" in ex.audit["min"]


class TestQuartic:
    """The slice-stacked phi, gradient and Hessian against per-slice loops."""

    @staticmethod
    def _loops(h, u):
        phi, grad, hess = float(np.sum(h**2)), np.zeros_like(u), np.zeros((u.size, u.size))
        for ha in h:
            sym2, sym1, quad = ha.T @ ha + ha @ ha.T, ha + ha.T, float(u @ ha @ u)
            phi += -u @ sym2 @ u + quad * quad
            grad += -2.0 * sym2 @ u + 2.0 * quad * sym1 @ u
            hess += -2.0 * sym2 + 2.0 * quad * sym1 + 2.0 * np.outer(sym1 @ u, sym1 @ u)
        return phi, grad, hess

    @pytest.mark.parametrize("kind", ["symmetric", "skew"])
    def test_matches_per_slice_loops(self, kind):
        rng = np.random.default_rng(11)
        for n, n_alpha in ((3, 1), (4, 3), (5, 4)):
            if kind == "symmetric":
                h = sym_input(rng, n_alpha, n).coeffs
            else:
                h = skew_coeffs(rng, n_alpha, n)
            Q = _Quartic.of(h)
            U = rng.normal(size=(6, n))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            ones = np.ones(len(U))
            W, r = Q.products(U)
            phi, grad = _phi(Q, r), _grad(W, _coef(r, ones))
            W1, r1 = Q.products(U[:, None, :])
            hess = _hess(Q, W1, _coef(r1, ones), ones)
            state = _RowState.at(Q, U, ones)
            for m, u in enumerate(U):
                want_phi, want_grad, want_hess = self._loops(h, u)
                assert phi[m] == pytest.approx(want_phi, abs=1e-12)
                assert phi[m] == pytest.approx(
                    (n - 1) * casorati_subspace(CasoratiInput(h, kind=kind), normal=u), abs=1e-12
                )
                np.testing.assert_allclose(grad[m], want_grad, rtol=0, atol=1e-12)
                np.testing.assert_allclose(hess[m], want_hess, rtol=0, atol=1e-12)
                # grad . u read off r
                assert state.gu[m] == pytest.approx(want_grad @ u, abs=1e-12)


# -- single-row oracle of the batched search ----------------------------------
# The search as it ran before both sides and every polish candidate were
# stacked: one descent per side and one Newton polish per candidate, each
# on a single row, on h itself.  The batched search, on h / 2**k, must
# round exactly as this does, its values scaled back by 4**k.  With
# ``full=True`` the burn-in gives way to a full descent of every row to
# the gradient tolerance, the reference that a short burn-in must not
# fall behind.

_FULL_DESCENT_ITERS = 200


def _oracle_descent(Q, U, sign, iters, tol=0.0):
    """Value-gated descent of one side for at most ``iters`` steps.

    A row stops once its gradient meets ``tol`` or its step stalls.  With
    ``tol = 0`` and ``_BURN_IN`` steps no row stops: that is the burn-in.
    """
    vals, grad = _signed_phi_grad(Q, U, np.ones(len(U)))
    vals, grad = sign * vals, sign * grad
    steps = np.full(U.shape[0], 0.1)
    done = np.zeros(U.shape[0], dtype=bool)
    for _ in range(iters):
        rgrad = grad - np.einsum("mn,mn->m", grad, U)[:, None] * U
        done |= np.einsum("mn,mn->m", rgrad, rgrad) < tol * tol
        if done.all():
            break
        cand = U - steps[:, None] * rgrad
        cand /= np.sqrt(np.einsum("mn,mn->m", cand, cand))[:, None]
        cand_vals, cand_grad = _signed_phi_grad(Q, cand, np.ones(len(cand)))
        cand_vals *= sign
        accept = ~done & (cand_vals < vals)
        U = np.where(accept[:, None], cand, U)
        vals = np.where(accept, cand_vals, vals)
        grad = np.where(accept[:, None], sign * cand_grad, grad)
        steps *= np.where(accept, 1.2, np.where(done, 1.0, 0.5))
        done |= steps < 1e-13
    return U, vals


def _oracle_state(Q, u, sign):
    """(sign * phi, Riemannian gradient, its norm, grad . u, Euclidean Hessian) of one row."""
    W, r = Q.products(u[None, :])
    q2 = r[:, 1:]
    sq = np.einsum("ma,ma->m", q2, q2)[0]
    gu = sign * (sq - 2.0 * r[0, 0])  # -2 u^T S u + sum_a (u^T sym_a u)^2
    coef = np.concatenate([[-2.0 * sign], sign * r[0, 1:]])
    rgrad = np.einsum("k,kn->n", coef, W[0]) - gu * u
    V = W[0, 1:]
    hess = np.tensordot(coef, Q.blocks, axes=1).reshape(len(u), -1) + 2.0 * sign * (V.T @ V)
    return sign * float(_phi(Q, r)[0]), rgrad, np.sqrt(rgrad @ rgrad), gu, hess


def _oracle_tangent_basis(u):
    w = u.copy()
    w[0] += math.copysign(1.0, u[0])
    return np.eye(len(u))[:, 1:] - np.outer(2.0 / (w @ w) * w, w[1:])


def _oracle_step(Ht, gt, floor):
    """Newton where Ht factors, else |eigenvalues| of at least ``floor``."""
    try:
        np.linalg.cholesky(Ht)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(Ht)
        return -(V @ ((V.T @ gt) / np.maximum(np.abs(lam), floor)))
    return -np.linalg.solve(Ht, gt)


def _oracle_polish(Q, u, sign, tol):
    """(u, converged, Newton steps taken, sign * phi) of one row."""
    value, rgrad, gnorm, gu, hess = _oracle_state(Q, u, sign)
    for it in range(_POLISH_ITERS):
        if gnorm < tol:
            return u, True, it, value
        Qt = _oracle_tangent_basis(u)
        Ht = Qt.T @ hess @ Qt - gu * np.eye(Qt.shape[1])
        gt = Qt.T @ rgrad
        z = _oracle_step(Ht, gt, 1e-14)
        step = 1.0
        for _ in range(30):
            cand = u + step * (Qt @ z)
            cand /= np.linalg.norm(cand)
            cstate = _oracle_state(Q, cand, sign)
            if cstate[2] < gnorm or cstate[0] < value + step * 1e-4 * (z @ gt):
                u, (value, rgrad, gnorm, gu, hess) = cand, cstate
                break
            step *= 0.5
        else:
            return u, False, it, value
    return u, bool(gnorm < tol), _POLISH_ITERS, value


def _oracle_side(Q, starts, sign, tol, full=False):
    """The polished rows of one side, in the order the burn-in ranked them."""
    if full:
        U, vals = _oracle_descent(Q, starts, sign, _FULL_DESCENT_ITERS, tol)
    else:
        U, vals = _oracle_descent(Q, starts, sign, _BURN_IN)
    polished = []
    for idx in np.argsort(vals)[:_POLISH_COUNT]:
        u, ok, steps, value = _oracle_polish(Q, U[idx].copy(), sign, tol)
        polished.append((value, u, ok, int(idx), steps))
    return polished


def _oracle_pick(polished, window):
    """Best sign * phi, and the row of its tie set with the lowest start index."""
    best = min(rec[0] for rec in polished)
    return best, min((rec for rec in polished if rec[0] - best < window), key=lambda rec: rec[3])


def _random_symmetric(seed):
    rng = np.random.default_rng(seed)
    n, n_alpha = int(rng.integers(3, 7)), int(rng.integers(1, 6))
    return sym_input(rng, n_alpha, n).coeffs


class TestBatchedSearchOracle:
    """The stacked descent and the batched polish round as the single-row search did."""

    @pytest.mark.parametrize("seed", range(32))
    def test_multistart_matches_oracle(self, seed):
        # every fourth input is scaled by 10^seed and searched on h / 2^k
        h = _random_symmetric(seed) * (10.0**seed if seed % 4 == 3 else 1.0)
        k = int(_scale_exponents(h))
        assert (k > 0) == (seed % 4 == 3)
        Q, Qk = _Quartic.of(h), _Quartic.of(h, k)
        scale = max(1.0, Q.total_sq)
        tol = _GRAD_TOL * scale
        starts = _starts(Qk)
        sides = _search(Qk, starts, Qk.scaled(tol))
        ex = _multistart_extrema(h)
        n = h.shape[1]
        for side, sign, want_starts, key in zip(sides, (1.0, -1.0), starts, ("min", "max")):
            polished = _oracle_side(Q, want_starts, sign, tol)
            assert side.iterations == max(rec[4] for rec in polished)
            assert np.array_equal(np.ldexp(side.value, 2 * k), [rec[0] for rec in polished])
            assert np.array_equal(side.U, np.stack([rec[1] for rec in polished]))
            assert np.array_equal(side.ok, [rec[2] for rec in polished])
            assert np.array_equal(side.start, [rec[3] for rec in polished])
            best, pick = _oracle_pick(polished, _TIE_VALUE * scale)
            got = ex.inf_CL if sign > 0 else ex.sup_CL
            assert got == sign * best / (n - 1)
            assert np.array_equal(ex.argmin_normal if sign > 0 else ex.argmax_normal, pick[1])
            assert ex.audit[key]["start_index"] == pick[3]

    def test_row_form_rounds_row_by_row(self):
        # the polish carries a row's state from whichever block evaluated it, so a
        # row's products, gradient, Hessian, value and dots may not depend on the other rows
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n, n_alpha, m = int(rng.integers(3, 9)), int(rng.integers(1, 6)), int(rng.integers(2, 25))
            Q = _Quartic.of(sym_input(rng, n_alpha, n).coeffs)
            U = rng.normal(size=(m, n))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            V = rng.normal(size=(m, n))
            sign = rng.choice([-1.0, 1.0], size=m)
            idx = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            W, r = Q.products(U[:, None, :])
            Ws, rs = Q.products(U[idx][:, None, :])
            assert np.array_equal(Ws, W[idx]) and np.array_equal(rs, r[idx])
            assert np.array_equal(_phi(Q, rs), _phi(Q, r)[idx])
            coef, coefs = _coef(r, sign), _coef(rs, sign[idx])
            assert np.array_equal(_grad(Ws, coefs), _grad(W, coef)[idx])
            assert np.array_equal(_hess(Q, Ws, coefs, sign[idx]), _hess(Q, W, coef, sign)[idx])
            assert np.array_equal(_dot(U[idx], V[idx]), _dot(U, V)[idx])
            whole, part = _RowState.at(Q, U, sign), _RowState.at(Q, U[idx], sign[idx])
            assert all(np.array_equal(x[idx], y) for x, y in zip(whole, part))

    @pytest.mark.parametrize("seed", range(32))
    def test_each_iterate_is_evaluated_once(self, seed, monkeypatch):
        # row-form evaluations: the polished rows once, then one per line-search
        # pass; no accepted candidate is evaluated again for the next Newton step,
        # the convergence test or the ranking.  Two rows may meet at one point, so
        # a point is only checked against the evaluations before its own
        h = _random_symmetric(seed)
        rows, blocks, newton = [], [], []
        products, frames = _Quartic.products, casorati_module._tangent_frames

        def counted_products(Q, U):
            (rows if U.ndim == 3 else blocks).append(U.reshape(len(U), -1).copy())
            return products(Q, U)

        def counted_frames(U):  # one stack of frames per Newton iteration
            newton.append(len(U))
            return frames(U)

        monkeypatch.setattr(_Quartic, "products", counted_products)
        monkeypatch.setattr(casorati_module, "_tangent_frames", counted_frames)
        _multistart_extrema(h)
        assert len(blocks) == _BURN_IN + 1
        assert len(rows[0]) == 2 * _POLISH_COUNT
        seen = set()
        for U in rows:
            points = {u.tobytes() for u in U}
            assert not points & seen
            seen |= points
        # every Newton step makes one to 30 line-search passes
        assert len(newton) <= len(rows) - 1 <= 30 * len(newton)

    def test_modified_newton_steps_descend(self):
        Ht = np.stack([np.diag([2.0, 4.0, 8.0]), np.diag([-1.0, 0.0, 3.0]), np.zeros((3, 3))])
        Ht[0, 0, 1] = Ht[0, 1, 0] = 1.0
        gt = np.arange(9.0).reshape(3, 3) + 1.0
        # a positive definite stack takes the factor path: one stacked solve
        z = _newton_steps(Ht[:1].repeat(2, axis=0), gt[:2], 1e-14)
        assert np.array_equal(z, -np.linalg.solve(Ht[:1].repeat(2, axis=0), gt[:2, :, None])[:, :, 0])
        np.testing.assert_allclose(z[0], np.linalg.solve(Ht[0], -gt[0]), rtol=1e-14)
        # a mixed stack falls back row by row: each row takes the step it takes alone
        z = _newton_steps(Ht, gt, 1e-14)
        for m in range(3):
            assert np.array_equal(z[m], _newton_steps(Ht[m : m + 1], gt[m : m + 1], 1e-14)[0])
        np.testing.assert_allclose(z[0], np.linalg.solve(Ht[0], -gt[0]), rtol=1e-14)
        # indefinite and singular rows: |eigenvalue|, at least the floor
        np.testing.assert_allclose(z[1], -gt[1] / np.array([1.0, 1e-14, 3.0]), rtol=1e-14)
        np.testing.assert_allclose(z[2], -gt[2] / 1e-14, rtol=1e-14)
        np.testing.assert_allclose(_newton_steps(Ht[2:], gt[2:], 0.5)[0], -gt[2] / 0.5, rtol=1e-14)
        assert np.all(np.einsum("mk,mk->m", z, gt) < 0)


class TestScaleAndTies:
    """The search on h / 2**k is the search on h, and a last-bit change moves no report field."""

    @pytest.mark.parametrize("seed", range(12))
    def test_scaled_search_takes_the_unscaled_steps(self, seed, monkeypatch):
        # 2**k > max|h| > 1: the scaled search returns the unscaled one's bits
        h = _random_symmetric(seed) * 10.0 ** (1 + 3 * seed)
        assert _scale_exponents(h) > 0
        scaled = _multistart_extrema(h)
        monkeypatch.setattr(casorati_module, "_scale_exponents", lambda h: np.zeros((), int))
        plain = _multistart_extrema(h)
        assert (scaled.inf_CL, scaled.sup_CL) == (plain.inf_CL, plain.sup_CL)
        assert np.array_equal(scaled.argmin_normal, plain.argmin_normal)
        assert np.array_equal(scaled.argmax_normal, plain.argmax_normal)
        assert scaled.audit == plain.audit
        assert (scaled.degenerate_min, scaled.degenerate_max) == (plain.degenerate_min, plain.degenerate_max)

    def test_scale_exponents(self):
        h = np.zeros((5, 2, 3, 3))
        for p, top in enumerate([0.0, 0.5, 1.0, 2.0, 3.0e100]):
            h[p, 1, 2, 0] = -top
        k = _scale_exponents(h)
        assert k.tolist() == [0, 0, 0, 2, 334]
        assert np.all(np.ldexp(1.0, k[3:]) > [2.0, 3.0e100])

    def test_reversed_slices_move_no_audit(self):
        # reversing the slices changes only the order of the sums over them, so
        # each burn-in and polished value moves in its last bits; the tie rule
        # keeps every audit field, tie flag and normal.  Input 51 ties two starts
        # in the burn-in: a pick by burn-in rank moved its min start_index 38 -> 2
        rng = np.random.default_rng(33)
        for _ in range(200):
            n, n_alpha = int(rng.integers(3, 6)), int(rng.integers(2, 6))
            h = sym_input(rng, n_alpha, n).coeffs
            a, b = _multistart_extrema(h), _multistart_extrema(h[::-1].copy())
            assert a.audit == b.audit
            assert (a.degenerate_min, a.degenerate_max) == (b.degenerate_min, b.degenerate_max)
            assert abs(a.inf_CL - b.inf_CL) <= 1e-14 and abs(a.sup_CL - b.sup_CL) <= 1e-14
            for u, v in ((a.argmin_normal, b.argmin_normal), (a.argmax_normal, b.argmax_normal)):
                assert min(np.abs(u - v).max(), np.abs(u + v).max()) <= 1e-14


_FAMILIES = ("uniform", "commuting", "clustered", "scaled", "heavy-tailed")


def _stress_case(family, seed):
    """(h, Q): symmetric slices h from one of five stress families, n = 3..8, 1..5 slices.

    Q is the common eigenbasis of the slices for the commuting and
    clustered families, and None for the others.
    """
    rng = np.random.default_rng([seed, _FAMILIES.index(family)])
    n, n_alpha = int(rng.integers(3, 9)), int(rng.integers(1, 6))
    if family in ("uniform", "scaled"):
        h = sym_input(rng, n_alpha, n).coeffs
        return (h * 10.0 ** rng.uniform(-3.0, 3.0) if family == "scaled" else h), None
    if family == "heavy-tailed":  # Student t entries with 1.5 degrees of freedom
        raw = rng.standard_t(1.5, size=(n_alpha, n, n))
        return 0.5 * (raw + raw.transpose(0, 2, 1)), None
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if family == "commuting":
        lam = rng.uniform(-1.0, 1.0, size=(n_alpha, n))
    else:  # eigenvalues clustered at -1, 0 and 1, split by about 1e-6
        lam = rng.choice([-1.0, 0.0, 1.0], size=(n_alpha, n))
        lam += 1e-6 * rng.normal(size=(n_alpha, n))
    return np.einsum("ij,aj,kj->aik", Q, lam, Q), Q


def _stress_symmetric(family, seed):
    return _stress_case(family, seed)[0]


def _oracle_extremum(h, sign):
    """The full search's extremum of one side, or None where it raises."""
    n = h.shape[1]
    Q = _Quartic.of(h)
    tol = _GRAD_TOL * max(1.0, Q.total_sq)
    starts = _starts(Q)[0 if sign > 0 else 1]
    polished = _oracle_side(Q, starts, sign, tol, full=True)
    if not any(rec[2] for rec in polished):
        return None
    return sign * min(rec[0] for rec in polished) / (n - 1)


class TestBasinHandoffAccuracy:
    """The burn-in search finds extrema no worse than a full descent of every row."""

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("family", ["uniform", "commuting", "clustered", "scaled"])
    def test_no_worse_than_full_search(self, family, seed):
        h = _stress_symmetric(family, seed)
        want_inf, want_sup = _oracle_extremum(h, 1.0), _oracle_extremum(h, -1.0)
        if want_inf is None or want_sup is None:
            return  # the full search raises too: there is nothing to be no worse than
        got = _multistart_extrema(h)  # raises nothing where the oracle succeeds
        assert got.inf_CL <= want_inf + 1e-12 * max(1.0, abs(want_inf))
        assert got.sup_CL >= want_sup - 1e-12 * max(1.0, abs(want_sup))

    @pytest.mark.parametrize("seed", range(170))
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_raises_nowhere(self, family, seed):
        # clustered 0, 3, 5, 7, 49 and 127 once raised "no start reached gradient tolerance"
        hyperplane_extrema(CasoratiInput(_stress_symmetric(family, seed)))

    @pytest.mark.parametrize("seed", range(170))
    @pytest.mark.parametrize("family", ["commuting", "clustered"])
    def test_reflected_twin_flags_a_tie(self, family, seed):
        # Commuting slices make phi a function of the squared coordinates
        # in their common eigenbasis Q, so flipping the sign of one
        # coordinate of an extremal normal gives another extremal normal.
        # With two or more coordinates off zero that is a distinct
        # hyperplane: a true tie.  Clustered 29, 47 and 150 once missed it.
        h, Q = _stress_case(family, seed)
        ex = hyperplane_extrema(CasoratiInput(h))
        for u, degenerate in (
            (ex.argmin_normal, ex.degenerate_min),
            (ex.argmax_normal, ex.degenerate_max),
        ):
            if np.sum(np.abs(Q.T @ u) > 1e-2) >= 2:
                assert degenerate


_REFERENCE_STARTS = 1024


def _reference_extrema(h):
    """inf and sup C^L of a search from 1024 Gaussian starts a side, None for a side that raises."""
    n = h.shape[1]
    Q = _Quartic.of(h)
    tol = _GRAD_TOL * max(1.0, Q.total_sq)
    starts = np.stack([_sphere_starts(n, _REFERENCE_STARTS, seed) for seed in (1, 2)])
    sides = _search(Q, starts, tol)
    return [
        sign * float(side.value.min()) / (n - 1) if side.ok.any() else None
        for side, sign in zip(sides, (1.0, -1.0))
    ]


class TestStartSet:
    """The 64 eigen-seeded starts a side find every basin that 1024 Gaussian starts find."""

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("family", ["uniform", "commuting", "scaled", "heavy-tailed"])
    def test_no_worse_than_1024_starts(self, family, seed):
        h = _stress_symmetric(family, seed)
        want_inf, want_sup = _reference_extrema(h)
        got = _multistart_extrema(h)
        if want_inf is not None:
            assert got.inf_CL <= want_inf + 1e-12 * max(1.0, abs(want_inf))
        if want_sup is not None:
            assert got.sup_CL >= want_sup - 1e-12 * max(1.0, abs(want_sup))

    def test_heavy_tailed_105_needs_the_full_burn_in(self):
        # a 5-step burn-in ranks the sup basin out of the polish: sup C^L
        # 8.2161 where the 1024-start search finds 8.2213
        self.test_no_worse_than_1024_starts("heavy-tailed", 105)

    def test_eigenvectors_of_S_lead_each_side(self):
        h = _stress_symmetric("uniform", 0)
        n = h.shape[1]
        Q = _Quartic.of(h)
        starts = _starts(Q)
        assert starts.shape == (2, _START_COUNT, n)
        eig = np.linalg.eigh(Q.S)[1].T
        for k in (0, 1):
            assert np.array_equal(starts[k, :n], eig)
            gaussian = _sphere_starts(n, _START_COUNT, _START_SEED + k)
            assert np.array_equal(starts[k, n:], gaussian[n:])


def _noisy_slice(lams):
    """Q diag(lams) Q^T with 1e-6 Gaussian noise added to its diagonal."""
    rng = np.random.default_rng(0)
    n = len(lams)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    h = Q @ np.diag(lams) @ Q.T
    return h + np.diag(1e-6 * rng.normal(size=n))


def _one_slice_inf(h):
    """inf C^L of one symmetric slice with eigenvalues of both signs."""
    lam = np.linalg.eigvalsh(h)
    return (np.sum(lam**2) - lam[0] ** 2 - lam[-1] ** 2) / (len(lam) - 1)


class TestNearTieMinimum:
    """A nearly repeated extreme eigenvalue once left every polish short of the tolerance."""

    @pytest.mark.parametrize(
        "lams", [[-2.0, -2.0, 1.0], [-2.0, -2.0, -1.0, 1.0], [-1.0, -1.0, 0.0, 1.0, 1.0]]
    )
    def test_closed_form_inf(self, lams):
        h = _noisy_slice(lams)
        ex = hyperplane_extrema(CasoratiInput(h))
        assert ex.inf_CL == pytest.approx(_one_slice_inf(h), abs=1e-9)

    def test_clustered_slice_inf(self):
        # diag(-1, -1, 0, 1, 1): inf C^L = (sum lam^2 - 1 - 1) / 4 = 0.5
        ex = hyperplane_extrema(CasoratiInput(_noisy_slice([-1.0, -1.0, 0.0, 1.0, 1.0])))
        assert ex.audit["path"] == "exact"
        assert ex.inf_CL == pytest.approx(0.5, abs=1e-5)

    def test_pointwise_map_scene_runs(self, tmp_path):
        B = np.zeros((5, 3, 3))
        B[0] = _noisy_slice([-1.0, -1.0, 1.0])
        doc = {
            "version": 1,
            "name": "near-tie-map",
            "mode": "pointwise",
            "dim": 8,
            "kind": "map",
            "structure": {"name": "quat-flat:2"},
            "c": 4.0,
            "frames": {"range": np.eye(8)[:3].tolist(), "range_perp": np.eye(8)[3:].tolist()},
            "tensors": {"B": B.tolist()},
            "theorems": ["map_3_2", "lemma_map_3_1"],
        }
        path, out = tmp_path / "scene.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "-o", str(out)]) == 0
        (point,) = json.loads(out.read_text())["points"]
        assert point["errors"] == []
        for report in point["reports"]:
            inf_cl = report["extras"]["inf_CL"]
            assert inf_cl == pytest.approx(_one_slice_inf(B[0]), abs=1e-9)
            assert inf_cl == pytest.approx(0.5, abs=1e-5)


def _one_slice_case(seed):
    """One symmetric slice among 0..2 zero slices, n = 3..8, scaled by 1e-3..1e3.

    seed % 3 picks the spectrum: 0 mixed-sign, 1 positive, 2 negative.
    """
    rng = np.random.default_rng([seed, 31])
    n = int(rng.integers(3, 9))
    lam = rng.uniform(0.05, 1.0, size=n)
    if seed % 3 == 0:
        lam[rng.permutation(n)[: int(rng.integers(1, n))]] *= -1.0
    elif seed % 3 == 2:
        lam = -lam
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    h = np.zeros((1 + int(rng.integers(0, 3)), n, n))
    h[rng.integers(0, len(h))] = 10.0 ** rng.uniform(-3.0, 3.0) * (Q * lam) @ Q.T
    return 0.5 * (h + h.transpose(0, 2, 1))


class TestOneSlicePath:
    """The closed form for one nonzero symmetric slice against the multi-start and a dense sweep."""

    @pytest.mark.parametrize("seed", range(36))
    def test_matches_multistart(self, seed):
        h = _one_slice_case(seed)
        n = h.shape[1]
        inp = CasoratiInput(h)
        exact = hyperplane_extrema(inp)
        search = _multistart_extrema(h)
        assert_audit_shape(exact, "exact")
        tol = 1e-12 * max(1.0, float(np.sum(h**2))) / (n - 1)
        assert abs(exact.inf_CL - search.inf_CL) <= tol
        assert abs(exact.sup_CL - search.sup_CL) <= tol
        assert abs(casorati_subspace(inp, normal=exact.argmin_normal) - exact.inf_CL) <= tol
        assert abs(casorati_subspace(inp, normal=exact.argmax_normal) - exact.sup_CL) <= tol

    @pytest.mark.parametrize("seed", range(12))
    def test_bracketed_by_dense_sweep(self, seed):
        h = _one_slice_case(seed)
        n = h.shape[1]
        exact = hyperplane_extrema(CasoratiInput(h))
        U = np.random.default_rng(seed).normal(size=(20_000, n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        Q = _Quartic.of(h)
        vals = _phi(Q, Q.products(U)[1]) / (n - 1)
        tol = 1e-12 * max(1.0, float(np.sum(h**2))) / (n - 1)
        assert vals.min() >= exact.inf_CL - tol
        assert vals.max() <= exact.sup_CL + tol

    @pytest.mark.parametrize(
        "lams, deg_min, deg_max",
        [
            ([1.0, 2.0, 3.0], False, False),  # same sign: both extrema at simple eigenvectors
            ([-1.0, 0.5, 2.0], True, False),  # support-2 inf: the reflected normal ties
            ([-0.5, 0.5, 2.0, 3.0], True, True),  # +-lam sup tie: two eigenvectors share min lam^2
            ([-3.0, -2.0, -1.0, 3.0], True, False),  # +-lam at the top of the spectrum
            ([0.0, 1.0, 3.0, 3.0], True, False),  # same sign, repeated max lam^2
        ],
    )
    def test_tie_flags(self, lams, deg_min, deg_max):
        n = len(lams)
        Q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
        h = (Q * lams) @ Q.T
        ex = hyperplane_extrema(CasoratiInput(0.5 * (h + h.T)))
        assert ex.audit["path"] == "exact"
        assert (ex.degenerate_min, ex.degenerate_max) == (deg_min, deg_max)


class TestSearchFailureAndCache:
    def test_no_converged_row_raises_with_best(self, monkeypatch):
        inp = sym_input(np.random.default_rng(5), 2, 4)
        inf_cl = hyperplane_extrema(inp).inf_CL
        # the package attribute ``casoratiq.casorati`` is the function of that name
        monkeypatch.setattr(importlib.import_module("casoratiq.casorati"), "_GRAD_TOL", 0.0)
        with pytest.raises(OptimizationError) as err:
            hyperplane_extrema(inp)
        assert isinstance(err.value.best, float)
        assert err.value.best == pytest.approx(inf_cl, abs=1e-8)

    def test_starts_are_cached_and_read_only(self):
        first = _sphere_starts(4, _START_COUNT, _START_SEED)
        assert _sphere_starts(4, _START_COUNT, _START_SEED) is first
        assert first.shape == (_START_COUNT, 4)
        np.testing.assert_allclose(np.linalg.norm(first, axis=1), 1.0, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    def test_starts_built_once_per_dimension_and_seed(self):
        _sphere_starts.cache_clear()
        misses = []
        for r in range(2):  # two rounds of every (s, ell) pair
            for s in (3, 4, 5):
                for ell in (3, 4, 5):
                    doc = random_pointwise_submersion(s, ell, -4.0, seed=10 * r + 3 * s + ell)
                    rep = evaluate_scenario(parse_scenario(doc))
                    assert rep.aggregate["point_errors"] == 0
            misses.append(_sphere_starts.cache_info().misses)
        assert misses[0] > 0 and misses[1] == misses[0]
        assert _sphere_starts.cache_info().hits > 0

    def test_import_and_exact_scene_leave_scipy_unloaded(self):
        code = (
            "import sys\n"
            "from casoratiq.cli import report_json\n"
            "from casoratiq.scenes import builtin_names, builtin_scenario, evaluate_scenario\n"
            "for name in builtin_names():\n"
            "    report_json(evaluate_scenario(builtin_scenario(name)))\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestExactPath:
    """The closed form for skew and zero slices against the multi-start."""

    @staticmethod
    def _agree(h, kind):
        n = h.shape[1]
        exact = hyperplane_extrema(CasoratiInput(h, kind=kind))
        search = _multistart_extrema(h)
        assert_audit_shape(exact, "exact")
        assert_audit_shape(search, "multistart")
        tol = 1e-10 * max(1.0, float(np.sum(h**2))) / (n - 1)
        assert abs(exact.inf_CL - search.inf_CL) <= tol
        assert abs(exact.sup_CL - search.sup_CL) <= tol
        for u, want in ((exact.argmin_normal, exact.inf_CL), (exact.argmax_normal, exact.sup_CL)):
            assert abs(casorati_subspace(CasoratiInput(h, kind=kind), normal=u) - want) <= tol

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("n_alpha", [1, 2, 3, 4])
    def test_skew_matches_multistart(self, n, n_alpha):
        rng = np.random.default_rng(100 * n + n_alpha)
        self._agree(skew_coeffs(rng, n_alpha, n), "skew")

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("n_alpha", [1, 4])
    @pytest.mark.parametrize("kind", ["symmetric", "skew"])
    def test_zero_matches_multistart(self, n, n_alpha, kind):
        self._agree(np.zeros((n_alpha, n, n)), kind)

    def test_zero_is_degenerate_on_both_sides(self):
        ex = hyperplane_extrema(CasoratiInput(np.zeros((1, 3, 3))))
        assert ex.audit["path"] == "exact"
        assert ex.inf_CL == 0.0 and ex.sup_CL == 0.0
        assert ex.degenerate_min and ex.degenerate_max

    def test_single_3x3_skew_slice_ties_at_the_inf(self):
        # A^T A has eigenvalues a^2, a^2, 0: the inf normal is any unit
        # vector of a plane, the sup normal is the kernel of A
        a = 0.7
        A = np.array([[[0.0, a, 0.0], [-a, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        ex = hyperplane_extrema(CasoratiInput(A, kind="skew"))
        assert ex.inf_CL == pytest.approx(0.0, abs=1e-15)
        assert ex.sup_CL == pytest.approx(a * a, abs=1e-15)
        assert ex.degenerate_min and not ex.degenerate_max
        assert abs(ex.argmax_normal[2]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("round_trip", [True, False])
    def test_every_result_carries_the_audit(self, round_trip):
        rng = np.random.default_rng(3)
        cases = [
            (sym_input(rng, 2, 4), "multistart"),
            (CasoratiInput(skew_coeffs(rng, 2, 4), kind="skew"), "exact"),
            (CasoratiInput(np.zeros((2, 5, 5))), "exact"),
            (sym_input(rng, 2, 6), "multistart"),
        ]
        for inp, path in cases:
            ex = hyperplane_extrema(inp)
            if round_trip:
                # the reports carry the audit into JSON: it must come back unchanged
                assert json.loads(json.dumps(ex.audit)) == ex.audit
            assert_audit_shape(ex, path)


class TestDelta:
    def test_equality_pattern(self):
        inp = CasoratiInput(np.diag([1.0, 1.0, 1.0, 2.0]))
        ex = hyperplane_extrema(inp)
        delta, delta_hat = delta_casorati(casorati(inp), ex, 4)
        assert delta == pytest.approx(1.5, abs=1e-10)
        assert delta_hat == pytest.approx(1.75, abs=1e-10)

    def test_zero(self):
        inp = CasoratiInput(np.zeros((1, 4, 4)))
        ex = hyperplane_extrema(inp)
        assert delta_casorati(0.0, ex, 4) == (0.0, 0.0)

    def test_umbilical_hat(self):
        inp = CasoratiInput(np.eye(4))
        ex = hyperplane_extrema(inp)
        _, delta_hat = delta_casorati(casorati(inp), ex, 4)
        assert delta_hat == pytest.approx(9.0 / 8.0, abs=1e-10)

    @given(seed=st.integers(0, 10_000), lam=st.floats(0.1, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_scaling_covariance(self, seed, lam):
        rng = np.random.default_rng(seed)
        inp = sym_input(rng, 2, 4)
        scaled = CasoratiInput(lam * inp.coeffs)
        ex = hyperplane_extrema(inp)
        ex_s = hyperplane_extrema(scaled)
        scale = max(1.0, abs(ex.inf_CL), abs(ex.sup_CL)) * lam * lam
        assert abs(ex_s.inf_CL - lam * lam * ex.inf_CL) < 1e-10 * scale
        assert abs(ex_s.sup_CL - lam * lam * ex.sup_CL) < 1e-10 * scale
        assert abs(abs(float(ex.argmin_normal @ ex_s.argmin_normal)) - 1.0) < 1e-5
        d, dh = delta_casorati(casorati(inp), ex, 4)
        ds, dhs = delta_casorati(casorati(scaled), ex_s, 4)
        assert abs(ds - lam * lam * d) < 1e-10 * scale
        assert abs(dhs - lam * lam * dh) < 1e-10 * scale


class TestTripathi:
    def test_k_zero(self):
        inst = TripathiInstance.from_lam1(3, 0.0, 2.0)
        t, f = tripathi_minimize(inst)
        assert np.allclose(t, 0.0) and f == 0.0

    def test_n3_example(self):
        inst = TripathiInstance.from_lam1(3, 3.0, 2.0)
        assert inst.lam2 == pytest.approx(2.0)
        t, f = tripathi_minimize(inst)
        assert np.allclose(t, [1.0, 1.0, 1.0])
        assert f == pytest.approx(0.0, abs=1e-12)
        tn, fn = tripathi_minimize_numeric(inst)
        assert abs(f - fn) < 1e-8 and np.abs(t - tn).max() < 1e-6

    def test_n4_example(self):
        inst = TripathiInstance.from_lam1(4, 4.0, 3.0)
        t, f = tripathi_minimize(inst)
        assert np.allclose(t, [1.0, 1.0, 1.0, 1.0])
        tn, fn = tripathi_minimize_numeric(inst)
        assert abs(f - fn) < 1e-8

    def test_alternative_expressions_consistent(self):
        # the displayed alternatives k/(lam2+1) = k(n-1)/((lam1+1) lam2)
        #                                      = k(lam1-n+2)/(lam1+1)
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            lam1 = n - 2 + rng.uniform(0.1, 5.0)
            k = rng.uniform(-5.0, 5.0)
            inst = TripathiInstance.from_lam1(n, k, lam1)
            t1 = inst.k / (inst.lam2 + 1.0)
            t2 = inst.k * (n - 1) / ((inst.lam1 + 1.0) * inst.lam2)
            t3 = inst.k * (inst.lam1 - n + 2.0) / (inst.lam1 + 1.0)
            assert t1 == pytest.approx(t2, rel=1e-12, abs=1e-12)
            assert t1 == pytest.approx(t3, rel=1e-12, abs=1e-12)

    def test_proviso_error(self):
        inst = TripathiInstance(3, 1.0, 2.0, 5.0)
        assert not inst.proviso_holds()
        with pytest.raises(ProvisoError):
            tripathi_minimize(inst)

    def test_random_feasible_dominated(self):
        rng = np.random.default_rng(4)
        inst = TripathiInstance.from_lam1(5, 2.5, 4.0)
        t_star, f_star = tripathi_minimize(inst)
        pts = rng.normal(size=(2000, 5))
        pts += (inst.k - pts.sum(axis=1))[:, None] / 5.0
        vals = tripathi_objective(inst, pts)
        assert vals.min() >= f_star - 1e-9

    def test_positivity_required(self):
        with pytest.raises(ProvisoError):
            TripathiInstance(3, 1.0, -1.0, 2.0)
        with pytest.raises(ProvisoError):
            TripathiInstance.from_lam1(4, 1.0, 1.5)  # lam1 <= n - 2
