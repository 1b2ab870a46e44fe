import gc
import math
import weakref

import numpy as np
import pytest

from subriemann import expr as ex


def test_parse_and_eval_basics():
    e = ex.parse("x^2 + 3*y - sin(t)")
    assert e.at((2.0, 1.0, 0.0)) == pytest.approx(7.0)
    assert e.at((0.0, 0.0, math.pi / 2)) == pytest.approx(-1.0)


def test_parse_alias_and_pi():
    e = ex.parse("cos(alpha) + pi")
    assert e.at((0, 0, 0.0)) == pytest.approx(1.0 + math.pi)


def test_parse_errors():
    with pytest.raises(ex.DomainError):
        ex.parse("x +")
    with pytest.raises(ex.DomainError):
        ex.parse("foo(x)")
    with pytest.raises(ex.DomainError):
        ex.parse("x ^ y")  # exponent must be a constant


def test_vectorized_eval():
    e = ex.parse("x*y + exp(t)")
    xs = np.linspace(0, 1, 5)
    vals = e.eval(xs, 2.0, 0.0)
    assert np.allclose(vals, xs * 2.0 + 1.0)


def test_operator_sugar_matches_parse():
    a = ex.X * ex.X - 2.0 * ex.Y + ex.sin(ex.T) / 3.0
    b = ex.parse("x*x - 2*y + sin(t)/3")
    p = (0.3, -1.2, 0.7)
    assert a.at(p) == pytest.approx(b.at(p), rel=1e-15)


def test_symbolic_derivative_against_central_differences():
    rng = np.random.default_rng(7)
    exprs = [
        ex.parse("x^3*y - 2*x*t + sqrt(x*x + y*y + 4)"),
        ex.parse("sin(x*y) * exp(t/4) + cos(x)"),
        ex.parse("(x + 2*y)^4 / (3 + t*t)"),
        ex.parse("sqrt(exp(x) + y^2 + 1) - x/(y + 5)"),
    ]
    for e in exprs:
        for var in range(3):
            d = e.diff(var)
            for _ in range(25):
                p = rng.uniform(-1.5, 1.5, 3)
                fd = ex.fd_derivative(e, p, var)
                sym = d.at(p)
                scale = max(1.0, abs(fd))
                assert abs(sym - fd) / scale < 1e-6


def test_second_derivatives_exact_on_polynomials():
    e = ex.parse("x^3 - 3*x*y^2")
    dxx = e.diff(0).diff(0)
    assert dxx.at((2.0, 1.0, 0.0)) == pytest.approx(12.0)
    dxy = e.diff(0).diff(1)
    assert dxy.at((2.0, 1.0, 0.0)) == pytest.approx(-6.0)


def test_validate_on_box_guards_division():
    bad = ex.parse("1/(x - y)")
    with pytest.raises(ex.DomainError):
        ex.validate_on_box(bad, ((-1, 1), (-1, 1), (-1, 1)))
    good = ex.parse("1/(x + 10)")
    ex.validate_on_box(good, ((-1, 1), (-1, 1), (-1, 1)))


def test_validate_on_box_guards_sqrt():
    bad = ex.parse("sqrt(x)")
    with pytest.raises(ex.DomainError):
        ex.validate_on_box(bad, ((-1, 1), (0, 1), (0, 1)))
    ex.validate_on_box(ex.parse("sqrt(x + 2)"), ((-1, 1), (0, 1), (0, 1)))


def test_substitution_is_composition():
    e = ex.parse("x*y + t^2")
    composed = ex.substitute(e, (ex.parse("t"), ex.parse("2*x"), ex.parse("y - 1")))
    # (t)*(2x) + (y-1)^2
    p = (0.5, 2.0, 3.0)
    assert composed.at(p) == pytest.approx(3.0 * 1.0 + (2.0 - 1.0) ** 2)


def test_constant_folding_keeps_trees_small():
    e = ex.mul(ex.add(ex.ZERO, ex.X), ex.ONE)
    assert e is ex.X
    assert isinstance(ex.mul(2.0, ex.mul(3.0, ex.ONE)), ex.Const)


# ---------------------------------------------------------------------------
# compiled kernels

_KERNEL_EXPRS = [
    ex.parse("x^3*y - 2*x*t + sqrt(x*x + y*y + 4)"),
    ex.parse("sin(x*y) * exp(t/4) + cos(x)"),
    ex.parse("(x + 2*y)^4 / (3 + t*t)"),
    ex.parse("sqrt(exp(x) + y^2 + 1) - x/(y + 5)"),
    ex.parse("exp(sin(x) * cos(y)) / (2 + cos(t))"),
    ex.Const(1.5), ex.Const(-0.0), ex.Y,
]


def _same(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


def test_compiled_list_scalar_matches_tree_walk_bit_for_bit():
    kernel = ex.compiled_cse(_KERNEL_EXPRS)
    rng = np.random.default_rng(3)
    for p in rng.uniform(-2.0, 2.0, (40, 3)):
        p = tuple(float(c) for c in p)
        got = kernel(*p)
        assert isinstance(got, tuple) and len(got) == len(_KERNEL_EXPRS)
        for g, e in zip(got, _KERNEL_EXPRS):
            assert _same(float(g), e.at(p)), (e, p)


def test_compiled_list_math_mode_matches_one_output_kernels_bit_for_bit():
    kernel = ex.compiled_cse(_KERNEL_EXPRS, "math")
    assert kernel is not ex.compiled_cse(_KERNEL_EXPRS)   # its own cache entry
    singles = [ex.compiled_cse([e], "math") for e in _KERNEL_EXPRS]
    rng = np.random.default_rng(6)
    for p in rng.uniform(-2.0, 2.0, (40, 3)):
        for args in (tuple(p), tuple(float(c) for c in p)):   # np.float64, float
            got = kernel(*args)
            assert isinstance(got, tuple) and len(got) == len(_KERNEL_EXPRS)
            for g, f in zip(got, singles):
                assert _same(g, f(*args)[0])


def test_compiled_cse_takes_a_list_and_a_known_mode():
    with pytest.raises(TypeError):
        ex.compiled_cse(ex.X)
    with pytest.raises(ValueError):
        ex.compiled_cse([ex.X], "floats")


def test_raw_constant_subtrees_compute_in_float64():
    # smart constructors fold these; raw ones reach the kernels unfolded
    inv = ex.Div(ex.Const(1.0), ex.Const(0.0))
    root = ex.Pow(ex.Const(-1.0), 0.5)
    exprs = [inv, root, ex.add(ex.X, inv), ex.X]
    with np.errstate(all="ignore"):
        scalar = ex.compiled_cse(exprs)(0.5, 0.0, 0.0)
        batch = ex.compiled_cse(exprs, "arrays")(np.full((2, 3), 0.5))
    for row in (scalar, *batch):
        assert row[0] == np.inf and np.isnan(row[1]) and row[2] == np.inf
    with pytest.raises(ZeroDivisionError):   # "math" mode computes in floats
        ex.compiled_cse(exprs, "math")(0.5, 0.0, 0.0)


def test_tree_walk_power_of_a_negative_base_is_nan():
    # Python floats would make a complex number and keep its real part
    with np.errstate(invalid="ignore"):
        assert np.isnan(ex.sin(ex.Pow(ex.T, 0.5)).at((0.0, 0.0, -1.0)))
        assert np.isnan(ex.pow_(ex.T, 1.5).at((0.0, 0.0, -1.0)))
        assert np.isnan(ex.Pow(ex.Const(-1.0), 0.5).eval(np.zeros(2), 0.0, 0.0)).all()
    assert ex.pow_(ex.T, 3.0).at((0.0, 0.0, -2.0)) == -8.0


def _nodes(e):
    todo, seen = [e], []
    while todo:
        n = todo.pop()
        seen.append(n)
        todo.extend(n.children())
    return seen


def test_compiled_list_batch_matches_tree_walk_bit_for_bit():
    kernel = ex.compiled_cse(_KERNEL_EXPRS, "arrays")
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, (64, 3))
    out = kernel(pts)
    assert out.shape == (64, len(_KERNEL_EXPRS))
    for j, e in enumerate(_KERNEL_EXPRS):
        walk = np.broadcast_to(e.eval(pts[:, 0], pts[:, 1], pts[:, 2]), (64,))
        assert np.array_equal(out[:, j], walk), e
        assert np.array_equal(np.signbit(out[:, j]), np.signbit(walk)), e
        if not any(isinstance(n, ex.Pow) for n in _nodes(e)):
            # numpy's array power may round differently from scalar power
            assert np.array_equal(out[:, j], [e.at(p) for p in pts]), e
    assert np.all(out[:, 5] == 1.5)   # constant outputs broadcast


def test_compiled_list_shares_subexpressions_across_outputs():
    # a DAG whose tree walk has 2^60 nodes: the compile walk visits each
    # node object once and emits each distinct operation once
    e = ex.X
    for _ in range(60):
        e = ex.add(ex.mul(e, e), e)
    lines, results = ex._cse_program([e, ex.mul(e, e), e])
    assert len(lines) == 121
    assert results[0] == results[2]
    kernel = ex.compiled_cse([e, ex.sin(ex.Y), ex.sin(ex.Y)])
    assert kernel(0.0, 0.5, 0.0) == (0.0, np.sin(0.5), np.sin(0.5))


def test_compiled_list_division_by_zero_gives_inf_not_exception():
    kernel = ex.compiled_cse([ex.div(ex.ONE, ex.X), ex.div(ex.X, ex.Y)])
    with pytest.raises(ZeroDivisionError):
        ex.div(ex.ONE, ex.X).at((0.0, 0.0, 0.0))   # the Python-float walk
    with np.errstate(divide="ignore", invalid="ignore"):
        inv, ratio = kernel(0.0, 0.0, 0.0)
    assert inv == np.inf and np.isnan(ratio)


# ---------------------------------------------------------------------------
# hash-consing: equal expressions are one object


def test_equal_expressions_are_one_object():
    s = "x^3*y - 2*x*t + sqrt(x*x + y*y + 4)"
    assert ex.parse(s) is ex.parse(s)
    assert ex.parse("x + y") is ex.add(ex.X, ex.Y) is ex.Add(ex.X, ex.Y)
    assert ex.Sin(ex.X) is ex.sin(ex.X) and ex.Const(2.5) is ex.Const(2.5)
    assert ex.parse("x") is ex.X and ex.Var(2) is ex.T


def test_derivatives_are_memoized_on_the_node():
    s = "sin(x*y) * exp(t/4) + cos(x)"
    e = ex.parse(s)
    assert e.diff(0) is e.diff(0)
    assert ex.parse(s).diff(0).diff(1) is e.diff(0).diff(1)
    with pytest.raises(ValueError):
        e.diff(3)


def test_signed_zero_constants_are_two_nodes():
    assert ex.Const(0.0) is ex.ZERO and ex.Const(-0.0) is ex.Const(-0.0)
    assert ex.Const(-0.0) is not ex.Const(0.0)
    assert str(ex.Const(-0.0)) == "-0.0" and str(ex.Const(0.0)) == "0.0"
    assert str(ex.neg(ex.ZERO)) == "-0.0"
    neg_zero, zero = ex.compiled_cse([ex.Const(-0.0), ex.ZERO])(0.0, 0.0, 0.0)
    assert np.signbit(neg_zero) and not np.signbit(zero)


def test_node_kinds_and_immutability():
    p = ex.parse("x^3")
    assert isinstance(p, ex.Pow) and not isinstance(p, ex.Const)
    assert isinstance(ex.ONE, ex.Const) and isinstance(p, ex.Expr)
    assert p.children() == (ex.X,)
    with pytest.raises(AttributeError):
        p.value = 2.0


def test_equal_trees_share_one_kernel():
    a = ex.parse("exp(sin(x) * cos(y)) / (2 + cos(t))")
    b = ex.div(ex.exp(ex.mul(ex.sin(ex.X), ex.cos(ex.Y))), ex.add(2.0, ex.cos(ex.T)))
    assert ex.compiled_cse([a], "math") is ex.compiled_cse([b], "math")
    assert ex.compiled_cse([a, ex.X], "arrays") is ex.compiled_cse([b, ex.X], "arrays")


def test_substitute_rebuilds_equal_trees_as_the_same_node():
    e = ex.X
    for _ in range(12):
        e = ex.add(ex.mul(e, e), e)
    assert ex.substitute(e, (ex.X, ex.Y, ex.T)) is e
    assert ex.substitute(ex.parse("sqrt(x + y) * t"), (ex.Y, ex.X, 2.0)) \
        is ex.parse("sqrt(y + x) * 2")


def test_unreferenced_nodes_leave_the_intern_table():
    # the derivative of an exp refers back to it; the table must not pin it
    e = ex.exp(ex.mul(ex.X, ex.sin(ex.parse("y + 0.123456789"))))
    e.diff(0)
    e.diff(1)
    ref = weakref.ref(e)
    size = len(ex._NODES)
    del e
    gc.collect()
    assert ref() is None and len(ex._NODES) < size


def test_a_negative_constant_base_of_a_raw_power_is_bracketed_in_kernels():
    # kernel source once read "-2.0 ** 2.0", which Python binds as -(2.0 ** 2.0)
    e = ex.Pow(ex.Const(-2.0), 2.0)
    assert e.at((0.0, 0.0, 0.0)) == 4.0
    assert str(e) == "((-2.0) ^ 2.0)" and ex.parse(str(e)) is ex.Const(4.0)
    assert ex.compiled_cse([e], "math")(0.0, 0.0, 0.0) == (4.0,)
    assert ex.compiled_cse([e, ex.X])(0.0, 0.0, 0.0)[0] == 4.0
    assert ex.compiled_cse([e, ex.X], "arrays")(np.zeros((2, 3)))[:, 0].tolist() == [4.0, 4.0]
