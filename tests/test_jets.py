import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casoratiq import jets
from casoratiq.errors import DomainError
from casoratiq.expressions import compile_expression, compile_program
from casoratiq.jets import Jet2

from conftest import eval_jet2


def test_polynomial_example():
    out = eval_jet2(lambda x: x[0] * x[0] * x[1], [2.0, 3.0])
    assert out.value == 12.0
    assert np.allclose(out.grad, [12.0, 4.0])
    assert np.allclose(out.hess, [[6.0, 4.0], [4.0, 0.0]])


def test_constant_field():
    out = eval_jet2(lambda x: 5.0, [0.3, -0.7, 1.1])
    assert out.value == 5.0
    assert np.all(out.grad == 0.0)
    assert np.all(out.hess == 0.0)


def test_rational_example():
    # f = 1/(1+x^2): f(1) = 1/2, f'(1) = -1/2, f''(1) = 1/2
    out = eval_jet2(lambda x: 1.0 / (1.0 + x[0] * x[0]), [1.0])
    assert out.value == pytest.approx(0.5, abs=1e-14)
    assert out.grad[0] == pytest.approx(-0.5, abs=1e-12)
    assert out.hess[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_domain_error():
    with pytest.raises(DomainError):
        eval_jet2(lambda x: x[0], [1.0], domain=((-1.0, 1.0),))
    # boundary points are outside the open interval
    with pytest.raises(DomainError):
        eval_jet2(lambda x: x[0], [-1.0], domain=((-1.0, 1.0),))


def _finite_difference(field, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    f0 = field(list(x))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp, fm = field(list(x + e)), field(list(x - e))
        grad[i] = (fp - fm) / (2 * h)
        hess[i, i] = (fp - 2 * f0 + fm) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            hess[i, j] = hess[j, i] = (
                field(list(x + ei + ej))
                - field(list(x + ei - ej))
                - field(list(x - ei + ej))
                + field(list(x - ei - ej))
            ) / (4 * h * h)
    return f0, grad, hess


@pytest.mark.parametrize(
    "field,x",
    [
        (lambda c: jets.sin(c[0]) * jets.cos(c[1]) + jets.exp(c[0] * c[1]), [0.4, -0.6]),
        (lambda c: jets.sqrt(1.0 + c[0] * c[0] + c[1] * c[1]), [0.8, 0.3]),
        (lambda c: jets.log(2.0 + c[0]) / (1.0 + c[1] * c[1]), [0.5, -0.2]),
        (lambda c: jets.jet_norm(c) ** 3, [0.7, 0.4, 0.9]),
    ],
)
def test_matches_finite_differences(field, x):
    out = eval_jet2(field, x)
    def scalar_field(coords):
        v = field(coords)
        return v.value if isinstance(v, Jet2) else float(v)
    f0, grad, hess = _finite_difference(scalar_field, x)
    assert out.value == pytest.approx(f0, abs=1e-12)
    assert np.abs(out.grad - grad).max() < 1e-5
    assert np.abs(out.hess - hess).max() < 1e-5
    # third derivative against central differences of the exact Hessian
    h = 1e-4
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h
        d3_k = (eval_jet2(field, x + e).hess - eval_jet2(field, x - e).hess) / (2 * h)
        assert np.abs(out.d3[:, :, k] - d3_k).max() < 1e-5
    assert np.abs(out.d3 - out.d3.transpose(1, 0, 2)).max() < 1e-12
    assert np.abs(out.d3 - out.d3.transpose(0, 2, 1)).max() < 1e-12


def test_metric_fields_match_finite_differences():
    # every builtin metric component agrees with central differences
    from casoratiq.geometry import chart

    cases = [
        ("sphere:1.5", [1.1, 0.4]),
        ("half-plane", [0.7, 2.2]),
        ("polar", [1.4, 0.9]),
        ("sphere3:2", [1.0, 0.8, 0.5]),
    ]
    for name, x in cases:
        ch = chart(name)
        G0, G1, G2 = ch.metric_jets(np.array(x))
        n = ch.dim
        for a in range(n):
            for b in range(n):
                def comp(coords, a=a, b=b):
                    entry = ch.g(coords)[a][b]
                    return entry.value if isinstance(entry, Jet2) else float(entry)
                def comp_plain(coords, a=a, b=b):
                    entry = ch.g([Jet2.constant(v, n) for v in coords])[a][b]
                    return entry.value if isinstance(entry, Jet2) else float(entry)
                f0, grad, hess = _finite_difference(comp_plain, x)
                assert G0[a, b] == pytest.approx(f0, abs=1e-12)
                assert np.abs(G1[a, b] - grad).max() < 1e-5
                assert np.abs(G2[a, b] - hess).max() < 1e-5


@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    c=st.floats(0.5, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_arithmetic_consistency(a, b, c):
    # (f*g)' and quotient rules carried by the jets
    x = [a, b]
    f = eval_jet2(lambda t: (t[0] + 2.0) * (t[1] - 3.0) / (c + t[0] * t[0]), x)
    expected = (a + 2.0) * (b - 3.0) / (c + a * a)
    assert f.value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert np.abs(f.hess - f.hess.T).max() <= 1e-12


def test_power_and_chain():
    out = eval_jet2(lambda c: c[0] ** 3, [2.0])
    assert out.value == 8.0
    assert out.grad[0] == pytest.approx(12.0)
    assert out.hess[0, 0] == pytest.approx(12.0)
    with pytest.raises(ValueError):
        eval_jet2(lambda c: (c[0] - 3.0) ** 0.5, [1.0])


@pytest.mark.parametrize("p, d2, d3", [(2, 2.0, 0.0), (3, 0.0, 6.0)])
def test_integer_power_at_zero(p, d2, d3):
    # a vanishing falling factorial drops its term instead of evaluating 0^-1
    out = compile_expression(f"x1^{p}")(jets.seed_point([0.0]))
    assert (out.value, out.grad[0], out.hess[0, 0], out.d3[0, 0, 0]) == (0.0, 0.0, d2, d3)


def test_matrix_jets_match_finite_differences():
    def matrix(c):
        return [[jets.exp(c[0]) + 2.0, c[0] * c[1]], [c[1] * c[1], 3.0 + jets.sin(c[0] * c[1])]]

    def parts(x):
        # value, gradient and Hessian of every entry, the derivative axes first
        jet = [[eval_jet2(lambda c, i=i, j=j: matrix(c)[i][j], x) for j in range(2)]
               for i in range(2)]
        parts = [np.array([[getattr(e, name) for e in row] for row in jet])
                 for name in ("value", "grad", "hess")]
        return tuple(np.moveaxis(m, (0, 1), (-2, -1)) for m in parts)

    def matrix_jet(x):
        return parts(x)[:2]

    x = np.array([0.3, 0.7])
    a = matrix_jet(x)
    inv = jets.matrix_inverse(a)
    ident = jets.matrix_product(a, inv)
    assert np.abs(ident[0] - np.eye(2)).max() < 1e-14
    assert np.abs(ident[1]).max() < 1e-14
    h = 1e-5
    for p in range(2):
        e = np.zeros(2)
        e[p] = h
        fd = jets.matrix_inverse(matrix_jet(x + e))[0] - jets.matrix_inverse(matrix_jet(x - e))[0]
        assert np.abs(inv[1][p] - fd / (2 * h)).max() < 1e-8

    # the frame jets along E = I with H = {e1}, V = {e2}: the mixed second
    # derivative of A^-1 against central differences of its derivative along e2
    M, dM, d2M = parts(x)
    a = (M, dM, d2M[0, 1][None, None])
    zero = np.zeros((1, 1, 2, 2))
    inv = jets.frame_solve(a, np.linalg.inv(M), (np.eye(2), np.zeros((2, 2, 2)), zero), 1)
    ident = jets.frame_product(a, inv, 1)
    assert np.abs(ident[0] - np.eye(2)).max() < 1e-14
    assert np.abs(ident[1]).max() < 1e-14 and np.abs(ident[2]).max() < 1e-14
    e = np.array([h, 0.0])
    fd = jets.matrix_inverse(matrix_jet(x + e))[1][1] - jets.matrix_inverse(matrix_jet(x - e))[1][1]
    assert np.abs(inv[2][0, 0] - fd / (2 * h)).max() < 1e-8


# -- known zeros: one shared read-only marker, and no term formed through it ---------

_OPERATIONS = {
    "x+y": lambda x: x[0] + x[1],
    "x+2": lambda x: x[0] + 2.0,
    "2-x": lambda x: 2.0 - x[0],
    "x-y": lambda x: x[0] - x[1],
    "-x": lambda x: -x[0],
    "x*y": lambda x: x[0] * x[1],
    "2*x": lambda x: 2.0 * x[0],
    "x*x*y": lambda x: x[0] * x[0] * x[1],
    "2*(x*z+y*y)-z": lambda x: 2.0 * (x[0] * x[2] + x[1] * x[1]) - x[2],
    "x/y": lambda x: x[0] / x[1],
    "x/2": lambda x: x[0] / 2.0,
    "2/x": lambda x: 2.0 / x[0],
    "x^2": lambda x: x[0] ** 2,
    "x^3": lambda x: x[0] ** 3,
    "x^0.5": lambda x: x[0] ** 0.5,
    "x^0": lambda x: x[0] ** 0,
    "sqrt(1+x^2)": lambda x: jets.sqrt(1.0 + x[0] ** 2),
    "exp(x*y)": lambda x: jets.exp(x[0] * x[1]),
    "log(2+x)/y": lambda x: jets.log(2.0 + x[0]) / x[1],
    "sin(x)*cos(y)": lambda x: jets.sin(x[0]) * jets.cos(x[1]),
    "norm": jets.jet_norm,
    "3*c": lambda x: 3.0 * Jet2.constant(2.0, len(x), x[0].order),
    "c*x": lambda x: Jet2.constant(2.0, len(x), x[0].order) * x[2],
    "sin(c)": lambda x: jets.sin(Jet2.constant(0.5, len(x), x[0].order)),
}


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", _OPERATIONS)
def test_known_zeros_give_the_arrays_of_fresh_zeros(monkeypatch, name, order):
    """Every operation on jets that carry the marker equals the same operation on jets
    whose zero derivatives are fresh arrays, and so forms every term."""
    x = np.array([[0.3, 0.7, 1.1], [0.6, 0.5, 0.2]])
    op = _OPERATIONS[name]
    marked = op(jets.seed_point(x, order))
    monkeypatch.setattr(jets, "_zero", lambda shape: np.zeros(shape))
    fresh = op(jets.seed_point(x, order))
    assert not any(jets.known_zero(getattr(fresh, part)) for part in Jet2.__slots__)
    for part in Jet2.__slots__:
        a, b = getattr(marked, part), getattr(fresh, part)
        if a is None or b is None:
            assert a is b is None and order == 2
            continue
        # a derivative without the point axes broadcasts
        shape = np.broadcast_shapes(a.shape, b.shape)
        assert np.array_equal(np.broadcast_to(a, shape), np.broadcast_to(b, shape)), part


def test_the_marker_propagates_through_quadratics_and_is_read_only():
    x1, x2, x3, x4 = jets.seed_point(np.array([[0.3, 0.7, 0.2, 0.9], [1.1, -0.4, 0.5, 0.1]]))
    zero2, zero3 = jets._zero((4, 4)), jets._zero((4, 4, 4))
    assert x1.hess is zero2 and x1.d3 is zero3
    c = Jet2.constant(2.0, 4)
    assert (c.grad, c.hess, c.d3) == (jets._zero((4,)), zero2, zero3)
    # a product of degree-1 jets and a square have no third derivative, and a cube has one
    assert (x1 * x4).d3 is zero3 and (x1**2).d3 is zero3
    assert not jets.known_zero((x1 * x4).hess) and not jets.known_zero((x1**3).d3)
    # the quadratic Hopf map forms no third-derivative array
    hopf = compile_program(["x1^2+x2^2-x3^2-x4^2", "2*(x1*x4+x2*x3)", "2*(x2*x4-x1*x3)"])
    assert all(y.d3 is zero3 for y in hopf([x1, x2, x3, x4]))
    for marker in (jets._zero((4,)), zero2, zero3):
        assert not marker.any()
        with pytest.raises(ValueError):
            marker[(0,) * marker.ndim] = 1.0


@pytest.mark.parametrize(
    "texts, x, order, entry",
    [
        # a product's outer Hessian term overflows, and a literal factor's gradient
        (["x1 + x2", "(x1*1e160)*(x2*1e160)", "x1*1e308*10"], [1e-200, 1e-200], 3, 1),
        (["x1 + x2", "x1*1e308*10", "(x1*1e160)*(x2*1e160)"], [1e-200, 1e-200], 3, 1),
        # the third derivative alone overflows; at order 2 nothing does
        (["x1*x2", "(x1*1e110)^3"], [1e-100, 0.5], 3, 1),
        (["x1*x2", "(x1*1e110)^3"], [1e-100, 0.5], 2, None),
    ],
)
def test_a_non_finite_result_names_the_same_entry(monkeypatch, texts, x, order, entry):
    """Known zeros are finite and left unchecked; every other array is checked, and the
    error names the first entry that is not finite, with or without the marker."""
    prog = compile_program(texts)
    X = np.array([x, 2.0 * np.array(x)])
    for fresh in (False, True):
        if fresh:
            monkeypatch.setattr(jets, "_zero", lambda shape: np.zeros(shape))
        if entry is None:
            prog(jets.seed_point(X, order))
            continue
        with pytest.raises(DomainError) as err:
            prog(jets.seed_point(X, order))
        assert str(err.value) == f"expression {texts[entry]!r} is not finite at this point"
