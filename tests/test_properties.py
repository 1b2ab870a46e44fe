"""Property tests of the hash-consed expression layer.

Kept apart from test_expr.py, so that a missing hypothesis skips this file
only.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

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
    assert ex.compiled_cse(first) is ex.compiled_cse(second)
    assert ex.compiled_cse([first, ex.X], arrays=True) is \
        ex.compiled_cse([second, ex.X], arrays=True)
