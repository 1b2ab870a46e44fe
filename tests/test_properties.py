"""Property tests of the hash-consed expression layer.

Kept apart from test_expr.py, so that a missing hypothesis skips this file
only.
"""

import math
import operator
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from subriemann import expr as ex  # noqa: E402

_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
_FLOATS = st.one_of(_SIGNED, st.floats(allow_nan=False, allow_infinity=False))
_RAW = {"add": ex.Add, "sub": ex.Sub, "mul": ex.Mul, "div": ex.Div, "pow": ex.Pow,
        "neg": ex.Neg, "sin": ex.Sin, "cos": ex.Cos, "exp": ex.Exp, "sqrt": ex.Sqrt}
_SMART = {"add": ex.add, "sub": ex.sub, "mul": ex.mul, "div": ex.div, "pow": ex.pow_,
          "neg": ex.neg, "sin": ex.sin, "cos": ex.cos, "exp": ex.exp, "sqrt": ex.sqrt}


def _extend(kids):
    # (op, fold, *operands): fold picks the smart constructor over the raw op
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), st.booleans(), kids, kids),
        st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "sqrt"]), st.booleans(), kids),
        st.tuples(st.just("pow"), st.booleans(), kids, _FLOATS))


_RECIPES = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "t"]), st.tuples(st.just("const"), _FLOATS)),
    _extend, max_leaves=12)


def _build(recipe):
    if isinstance(recipe, str):
        return ex.Var(ex.VAR_NAMES.index(recipe))
    if recipe[0] == "const":
        return ex.Const(recipe[1])
    op, fold, *operands = recipe
    args = [_build(r) if isinstance(r, (str, tuple)) else r for r in operands]
    return (_SMART if fold else _RAW)[op](*args)


def _attempt(fn, *args):
    """fn(*args), or the type of the arithmetic error it raises (folding a
    constant can divide by zero, overflow or leave the reals)."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, TypeError) as err:
        return type(err)


@settings(max_examples=150, deadline=None)
@given(_RECIPES)
def test_the_same_recipe_builds_one_node_one_derivative_and_one_kernel(recipe):
    first, second = _attempt(_build, recipe), _attempt(_build, recipe)
    assert first is second
    if isinstance(first, type):
        return
    for var in range(3):
        assert _attempt(first.diff, var) is _attempt(second.diff, var)
    assert ex.compiled_cse([first], "math") is ex.compiled_cse([second], "math")
    assert ex.compiled_cse([first, ex.X], "arrays") is \
        ex.compiled_cse([second, ex.X], "arrays")


_FOLD = {_RAW[name]: _SMART[name] for name in _RAW}


def _refold(e):
    """e rebuilt node by node with the smart constructors, as ``parse``
    builds it: operands left to right, so that where two operands fail to
    fold, the first one's error is raised, as in ``parse``."""
    if not e.args:
        return e
    args = [_refold(c) for c in e.args]
    return _FOLD[e.op](*args) if e.value is None else _FOLD[e.op](*args, e.value)


def _smart_only(recipe):
    """Whether every op of the recipe is built by its smart constructor."""
    if isinstance(recipe, str) or recipe[0] == "const":
        return True
    return recipe[1] and all(_smart_only(r) for r in recipe[2:] if isinstance(r, (str, tuple)))


# ``parse`` builds through the smart constructors, which fold constants with
# the ``math`` functions.  So ``parse(str(e))`` is e itself when e was built
# with them, and otherwise e refolded by them: e's value up to the rounding
# of that folding.  str writes a non-finite constant as inf, -inf or nan, and
# the grammar reads them back; every nan constant is one node.
@settings(max_examples=200, deadline=None)
@given(_RECIPES)
@example(("pow", False, ("const", -2.0), 2.0))
@example(("neg", False, ("pow", False, ("const", -0.5), 3.0)))
@example(("mul", False, "y", ("mul", True, ("const", 1e308), ("const", -10.0))))
@example(("add", True, "x", ("add", True, ("mul", True, ("const", 1e308), ("const", 10.0)),
                             ("mul", True, ("const", -1e308), ("const", 10.0)))))
@example(("pow", False, "t", float("nan")))
@example(("add", False, ("pow", False, ("const", 0.0), -1.0), ("pow", False, ("const", -1.0), 0.5)))
def test_parse_reads_back_what_str_writes(recipe):
    e = _attempt(_build, recipe)
    if isinstance(e, type):
        return
    folded = _attempt(_refold, e)
    assert _attempt(lambda: ex.parse(str(e))) is folded
    if _smart_only(recipe):
        assert folded is e


# The batched singular-set screen and Newton solves rely on these: the
# scalar list kernel gives the tree walk ``at`` bit for bit, a column of the
# array kernel gives ``eval`` on the same columns bit for bit, and ``diff``
# is the derivative.  Points are np.float64, as the solvers pass them, so
# that x/0 gives inf or nan in the tree walk too; the kernels compute a
# subtree of raw constants in np.float64 as well, but the tree walk divides
# such constants as Python floats and may raise, and such values are
# skipped.
_POINT = st.tuples(*[st.floats(-2.0, 2.0).map(np.float64)] * 3)


def _derived(recipe):
    """[e, d/dx e, d/dy e, d/dt e], or None where building one raises."""
    e = _attempt(_build, recipe)
    exprs = [e] if isinstance(e, type) else [e] + [_attempt(e.diff, v) for v in range(3)]
    return None if any(isinstance(d, type) for d in exprs) else exprs


def _finite_at(e, p):
    """e.at(p), or None where the tree walk raises, turns complex or is not
    finite."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            v = e.at(p)
        except (ArithmeticError, ValueError, TypeError, np.exceptions.ComplexWarning):
            return None
    return v if np.isfinite(v) else None


@settings(max_examples=150, deadline=None)
@given(_RECIPES, _POINT)
def test_the_scalar_list_kernel_equals_the_tree_walk(recipe, p):
    exprs = _derived(recipe)
    if exprs is None:
        return
    with np.errstate(all="ignore"):
        got = _attempt(ex.compiled_cse(exprs), *p)
    if isinstance(got, type):
        return
    for expr, value in zip(exprs, got):
        want = _finite_at(expr, p)
        if want is not None:
            assert float(value) == want and np.signbit(value) == np.signbit(want)


@settings(max_examples=150, deadline=None)
@given(_RECIPES, st.lists(_POINT, min_size=1, max_size=6))
def test_an_array_kernel_column_equals_eval(recipe, points):
    exprs = _derived(recipe)
    if exprs is None:
        return
    P = np.array(points, dtype=float)
    with np.errstate(all="ignore"):
        got = _attempt(ex.compiled_cse(exprs, "arrays"), P)
        if isinstance(got, type):
            return
        for col, expr in zip(got.T, exprs):
            want = _attempt(expr.eval, P[:, 0], P[:, 1], P[:, 2])
            if isinstance(want, type):
                continue
            want = np.broadcast_to(want, len(P))
            finite = np.isfinite(want)
            assert np.array_equal(col[finite], want[finite])


# A kernel gives a line's name to a later line once its last reader has run.
# These outputs share lines in the ways that reuse must respect: the first
# output is read again by a later output, a line reads the same child twice,
# an output is a subtree of raw constants, and one output comes twice.
_CONSTANT_RECIPES = st.recursive(st.tuples(st.just("const"), _FLOATS), _extend,
                                 max_leaves=4)


def _shared_outputs(recipes, constant):
    """The outputs of one kernel, or None where building one raises."""
    built = [_attempt(_build, r) for r in [*recipes, constant]]
    if any(isinstance(b, type) for b in built):
        return None
    *rest, c = built
    first, twice = rest[0], ex.Sin(rest[0])
    return [first, ex.Mul(twice, twice), *rest[1:], c, ex.Add(rest[-1], c),
            ex.Div(first, c), first]


_MATH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
         "neg": operator.neg, "sin": math.sin, "cos": math.cos, "exp": math.exp,
         "sqrt": math.sqrt}


def _math_walk(e, p):
    """e at p node by node in Python floats with the math functions, as
    ``"math"`` kernels compute."""
    vals = {}
    for n in ex._postorder((e,)):
        if n.op is ex.Const:
            vals[n] = n.value
        elif n.op is ex.Var:
            vals[n] = p[n.value]
        elif n.op is ex.Pow:
            vals[n] = vals[n.args[0]] ** n.value
        else:
            vals[n] = _MATH[n.op.name](*[vals[c] for c in n.args])
    return vals[e]


def _same_bits(got, want):
    got, want = np.asarray(got), np.broadcast_to(want, np.shape(got))
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan) and np.array_equal(got[~nan], want[~nan])
            and np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan])))


_SHARED = (st.lists(_RECIPES, min_size=1, max_size=3), _CONSTANT_RECIPES)


@settings(max_examples=150, deadline=None)
@given(*_SHARED, _POINT)
@example([("sin", False, "x"), ("mul", False, "x", "y")], ("const", 2.0), (0.5, 0.25, 0.0))
@example([("add", False, "x", "y")], ("add", False, ("const", 1.0), ("const", 2.0)),
         (1.0, 2.0, 3.0))
def test_scalar_kernels_of_shared_outputs_equal_the_tree_walk(recipes, constant, p):
    exprs = _shared_outputs(recipes, constant)
    if exprs is None:
        return
    q = tuple(map(float, p))
    got = _attempt(ex.compiled_cse(exprs, "math"), *q)
    walks = [_attempt(_math_walk, e, q) for e in exprs]
    if isinstance(got, type):
        assert any(isinstance(w, type) for w in walks)
    else:
        assert [repr(v) for v in got] == [repr(w) for w in walks]
    with np.errstate(all="ignore"):
        got = ex.compiled_cse(exprs)(*p)
        for e, value in zip(exprs, got):
            want = _attempt(e.at, p)     # raw constants divide as Python floats
            if not isinstance(want, type):
                assert _same_bits(value, want)


@settings(max_examples=150, deadline=None)
@given(*_SHARED, st.lists(_POINT, min_size=1, max_size=6))
@example([("sin", False, "x"), ("mul", False, "x", "y")], ("const", 2.0),
         [(0.5, 0.25, 0.0), (1.0, -1.0, 2.0)])
def test_array_kernels_of_shared_outputs_equal_eval(recipes, constant, points):
    exprs = _shared_outputs(recipes, constant)
    if exprs is None:
        return
    P = np.array(points, dtype=float)
    with np.errstate(all="ignore"):
        got = ex.compiled_cse(exprs, "arrays")(P)
        for col, e in zip(got.T, exprs):
            want = _attempt(e.eval, P[:, 0], P[:, 1], P[:, 2])
            if not isinstance(want, type):
                assert _same_bits(col, want)


FD_STEP = 1e-5


def _fd_check(e, de, p, var):
    """|de - central difference| and its bound at p along var, or None where
    e is not smooth at the step's scale h = FD_STEP.

    The central difference is the mean of de over [-h, h].  Smooth means: the
    even part of de at h and h/2 (its curvature, which sets that mean's
    error) is below 1e-6 relative, and the central differences of steps h
    and 2h agree to 1e-6 relative (no jump of e between the samples).  The
    bound is 1e-5 relative plus rounding: 1e-10 M (1 + |de|) / h, where M is
    the largest value of any subexpression of e at p (x + 1e8 moves in
    steps of 1.5e-8, not h).  Points where a subexpression of e or de is
    not finite, or is nonzero outside 1e-100 < |v| < 1e100 (where products
    under- or overflow and de itself loses its digits), are skipped."""
    def at(fn, k):
        q = list(p)
        q[var] += k * FD_STEP
        return _finite_at(fn, tuple(q))
    vals = [at(e, k) for k in (-2, -1, 1, 2)]
    ds = [at(de, k) for k in (-1, -0.5, 0, 0.5, 1)]
    if None in vals or None in ds:
        return None
    nodes = [_finite_at(n, p) for n in ex._postorder((e,))]
    if any(v is None or (v and not 1e-100 < abs(v) < 1e100)
           for v in nodes + [_finite_at(n, p) for n in ex._postorder((de,))]):
        return None
    m2, m1, p1, p2 = vals
    fd1, fd2 = (p1 - m1) / (2 * FD_STEP), (p2 - m2) / (4 * FD_STEP)
    d0 = ds[2]
    rounding = 1e-10 * max(map(abs, vals + nodes)) * (1.0 + abs(d0)) / FD_STEP
    smooth = 1e-6 * (1.0 + abs(d0))
    if abs(ds[0] + ds[4] - 2 * d0) > 2 * smooth or abs(ds[1] + ds[3] - 2 * d0) > 2 * smooth \
            or abs(fd1 - fd2) > 1e-6 * (1.0 + abs(fd1)) + rounding:
        return None
    return abs(d0 - fd1), 1e-5 * (1.0 + abs(fd1)) + rounding


@settings(max_examples=300, deadline=None)
@given(_RECIPES, _POINT)
def test_diff_agrees_with_a_central_difference(recipe, p):
    exprs = _derived(recipe)
    if exprs is None:
        return
    for var in range(3):
        check = _fd_check(exprs[0], exprs[1 + var], p, var)
        if check is not None:
            assert check[0] <= check[1]
