"""Small symbolic expression engine over chart coordinates.

Expressions are immutable trees over the variables x, y, t (the three chart
coordinates; "alpha" is accepted as an alias for t when parsing, which is
convenient for the roto-translation chart).  They support numpy-vectorized
evaluation and exact symbolic differentiation.  This is deliberately tiny:
just enough calculus for frame coefficients, level-set functions and the
curvature machinery built on top.

Grammar for :func:`parse` (EBNF)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* exponent must fold to a number *)
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;
    IDENT   = "x" | "y" | "t" | "alpha" | "pi" | "sin" | "cos" | "exp" | "sqrt" ;
"""

from __future__ import annotations

import math

import numpy as np

VAR_NAMES = ("x", "y", "t")
_VAR_ALIASES = {"x": 0, "y": 1, "t": 2, "alpha": 2}


class DomainError(ValueError):
    """Raised when an expression is not evaluable on its declared box."""


class Expr:
    """Base class for expression nodes.  Nodes are immutable and hashable."""

    __slots__ = ()

    def eval(self, x, y, t):
        raise NotImplementedError

    def diff(self, var: int) -> "Expr":
        raise NotImplementedError

    def children(self):
        return ()

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def at(self, p) -> float:
        """Evaluate at a single chart point (3 floats)."""
        return float(self.eval(p[0], p[1], p[2]))

    def __repr__(self):
        return f"Expr({self})"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def eval(self, x, y, t):
        return self.value

    def diff(self, var):
        return ZERO

    def __str__(self):
        return repr(self.value)

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self):
        return hash(("const", self.value))


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", int(index))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def eval(self, x, y, t):
        return (x, y, t)[self.index]

    def diff(self, var):
        return ONE if var == self.index else ZERO

    def __str__(self):
        return VAR_NAMES[self.index]

    def __eq__(self, other):
        return isinstance(other, Var) and other.index == self.index

    def __hash__(self):
        return hash(("var", self.index))


class _Binary(Expr):
    __slots__ = ("a", "b")
    op = "?"

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def children(self):
        return (self.a, self.b)

    def __str__(self):
        return f"({self.a} {self.op} {self.b})"

    def __eq__(self, other):
        return type(other) is type(self) and other.a == self.a and other.b == self.b

    def __hash__(self):
        return hash((self.op, self.a, self.b))


class Add(_Binary):
    __slots__ = ()
    op = "+"

    def eval(self, x, y, t):
        return self.a.eval(x, y, t) + self.b.eval(x, y, t)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


class Sub(_Binary):
    __slots__ = ()
    op = "-"

    def eval(self, x, y, t):
        return self.a.eval(x, y, t) - self.b.eval(x, y, t)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))


class Mul(_Binary):
    __slots__ = ()
    op = "*"

    def eval(self, x, y, t):
        return self.a.eval(x, y, t) * self.b.eval(x, y, t)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))


class Div(_Binary):
    __slots__ = ()
    op = "/"

    def eval(self, x, y, t):
        return self.a.eval(x, y, t) / self.b.eval(x, y, t)

    def diff(self, var):
        num = sub(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))
        return div(num, mul(self.b, self.b))


class Pow(Expr):
    """Power with a constant real exponent."""

    __slots__ = ("a", "exponent")

    def __init__(self, a: Expr, exponent: float):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "exponent", float(exponent))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def children(self):
        return (self.a,)

    def eval(self, x, y, t):
        base = self.a.eval(x, y, t)
        if self.exponent == int(self.exponent):
            return base ** int(self.exponent)
        return base ** self.exponent

    def diff(self, var):
        return mul(mul(Const(self.exponent), pow_(self.a, self.exponent - 1)),
                   self.a.diff(var))

    def __str__(self):
        return f"({self.a} ^ {self.exponent!r})"

    def __eq__(self, other):
        return isinstance(other, Pow) and other.a == self.a and other.exponent == self.exponent

    def __hash__(self):
        return hash(("pow", self.a, self.exponent))


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        object.__setattr__(self, "a", a)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def children(self):
        return (self.a,)

    def eval(self, x, y, t):
        return -self.a.eval(x, y, t)

    def diff(self, var):
        return neg(self.a.diff(var))

    def __str__(self):
        return f"(-{self.a})"

    def __eq__(self, other):
        return isinstance(other, Neg) and other.a == self.a

    def __hash__(self):
        return hash(("neg", self.a))


class _Func(Expr):
    __slots__ = ("a",)
    name = "?"

    def __init__(self, a: Expr):
        object.__setattr__(self, "a", a)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def children(self):
        return (self.a,)

    def __str__(self):
        return f"{self.name}({self.a})"

    def __eq__(self, other):
        return type(other) is type(self) and other.a == self.a

    def __hash__(self):
        return hash((self.name, self.a))


class Sin(_Func):
    __slots__ = ()
    name = "sin"

    def eval(self, x, y, t):
        return np.sin(self.a.eval(x, y, t))

    def diff(self, var):
        return mul(Cos(self.a), self.a.diff(var))


class Cos(_Func):
    __slots__ = ()
    name = "cos"

    def eval(self, x, y, t):
        return np.cos(self.a.eval(x, y, t))

    def diff(self, var):
        return neg(mul(Sin(self.a), self.a.diff(var)))


class Exp(_Func):
    __slots__ = ()
    name = "exp"

    def eval(self, x, y, t):
        return np.exp(self.a.eval(x, y, t))

    def diff(self, var):
        return mul(self, self.a.diff(var))


class Sqrt(_Func):
    __slots__ = ()
    name = "sqrt"

    def eval(self, x, y, t):
        return np.sqrt(self.a.eval(x, y, t))

    def diff(self, var):
        return div(self.a.diff(var), mul(Const(2.0), self))


ZERO = Const(0.0)
ONE = Const(1.0)
X = Var(0)
Y = Var(1)
T = Var(2)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def _is_const(e: Expr, value=None):
    if not isinstance(e, Const):
        return False
    return True if value is None else e.value == value


# Smart constructors fold constants and drop algebraic no-ops; this keeps the
# derived curvature expressions to a workable size without a real simplifier.

def add(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if a == b:
        return ZERO
    return Sub(a, b)


def mul(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(b, 0.0):
        raise ZeroDivisionError("division by constant zero expression")
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    if a == b:
        return ONE
    return Div(a, b)


def neg(a) -> Expr:
    a = _as_expr(a)
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(a, exponent) -> Expr:
    a = _as_expr(a)
    if isinstance(exponent, Expr):
        if not isinstance(exponent, Const):
            raise ValueError("exponent must be a numeric constant")
        exponent = exponent.value
    exponent = float(exponent)
    if exponent == 0.0:
        return ONE
    if exponent == 1.0:
        return a
    if _is_const(a):
        return Const(a.value ** exponent)
    if exponent == 0.5:
        return Sqrt(a)
    return Pow(a, exponent)


def sin(a) -> Expr:
    a = _as_expr(a)
    return Const(math.sin(a.value)) if _is_const(a) else Sin(a)


def cos(a) -> Expr:
    a = _as_expr(a)
    return Const(math.cos(a.value)) if _is_const(a) else Cos(a)


def exp(a) -> Expr:
    a = _as_expr(a)
    return Const(math.exp(a.value)) if _is_const(a) else Exp(a)


def sqrt(a) -> Expr:
    a = _as_expr(a)
    if _is_const(a):
        if a.value < 0:
            raise DomainError("sqrt of negative constant")
        return Const(math.sqrt(a.value))
    return Sqrt(a)


def var(name: str) -> Expr:
    return Var(_VAR_ALIASES[name])


def const(v: float) -> Expr:
    return Const(v)


# ---------------------------------------------------------------------------
# Parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            return ch
        if ch.isdigit() or ch == ".":
            j = self.pos
            while j < len(self.text) and (self.text[j].isdigit() or self.text[j] in ".eE"
                                          or (self.text[j] in "+-" and self.text[j - 1] in "eE")):
                j += 1
            return self.text[self.pos:j]
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return self.text[self.pos:j]
        raise DomainError(f"unexpected character {ch!r} at position {self.pos}")

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += len(tok)
        return tok


_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "sqrt": sqrt}


def parse(text: str) -> Expr:
    """Parse an expression string over (x, y, t); "alpha" aliases t."""
    tk = _Tokenizer(text)
    e = _parse_sum(tk)
    trailing = tk.peek()
    if trailing is not None:
        raise DomainError(f"unexpected trailing token {trailing!r} in {text!r}")
    return e


def _parse_sum(tk):
    e = _parse_term(tk)
    while tk.peek() in ("+", "-"):
        op = tk.next()
        rhs = _parse_term(tk)
        e = add(e, rhs) if op == "+" else sub(e, rhs)
    return e


def _parse_term(tk):
    e = _parse_unary(tk)
    while tk.peek() in ("*", "/"):
        op = tk.next()
        rhs = _parse_unary(tk)
        e = mul(e, rhs) if op == "*" else div(e, rhs)
    return e


def _parse_unary(tk):
    if tk.peek() == "-":
        tk.next()
        return neg(_parse_unary(tk))
    return _parse_power(tk)


def _parse_power(tk):
    base = _parse_atom(tk)
    if tk.peek() == "^":
        tk.next()
        exponent = _parse_unary(tk)
        if not isinstance(exponent, Const):
            raise DomainError("exponent must reduce to a numeric constant")
        return pow_(base, exponent.value)
    return base


def _parse_atom(tk):
    tok = tk.next()
    if tok is None:
        raise DomainError("unexpected end of expression")
    if tok == "(":
        e = _parse_sum(tk)
        if tk.next() != ")":
            raise DomainError("missing closing parenthesis")
        return e
    if tok[0].isdigit() or tok[0] == ".":
        return Const(float(tok))
    if tok == "pi":
        return Const(math.pi)
    if tok in _FUNCTIONS:
        if tk.next() != "(":
            raise DomainError(f"function {tok!r} requires parenthesized argument")
        arg = _parse_sum(tk)
        if tk.next() != ")":
            raise DomainError(f"missing closing parenthesis after {tok!r}")
        return _FUNCTIONS[tok](arg)
    if tok in _VAR_ALIASES:
        return Var(_VAR_ALIASES[tok])
    raise DomainError(f"unknown identifier {tok!r}")


# ---------------------------------------------------------------------------
# Domain guards and finite-difference oracle


def validate_on_box(e: Expr, box, n: int = 7, eps: float = 1e-12) -> None:
    """Check divisions and square roots are well defined on the box.

    ``box`` is ((x0, x1), (y0, y1), (t0, t1)).  Samples an n^3 grid; raises
    DomainError if any divisor comes within ``eps`` of zero or any sqrt
    argument goes negative.
    """
    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    gx, gy, gt = np.meshgrid(*axes, indexing="ij")

    def walk(node):
        if isinstance(node, Div):
            denom = np.asarray(node.b.eval(gx, gy, gt), dtype=float)
            if np.any(np.abs(denom) < eps):
                raise DomainError(f"divisor {node.b} vanishes on the declared box")
        if isinstance(node, Sqrt):
            arg = np.asarray(node.a.eval(gx, gy, gt), dtype=float)
            if np.any(arg < -eps):
                raise DomainError(f"sqrt argument {node.a} is negative on the declared box")
        for child in node.children():
            walk(child)

    walk(e)


def fd_derivative(e: Expr, p, var: int, h: float = 1e-5):
    """Central finite difference; test oracle for symbolic differentiation."""
    scale = max(1.0, abs(p[var]))
    hh = h * scale
    hi = list(p)
    lo = list(p)
    hi[var] += hh
    lo[var] -= hh
    return (e.at(hi) - e.at(lo)) / (2.0 * hh)


def substitute(e: Expr, repl) -> Expr:
    """Substitute expressions for the three variables (composition).

    ``repl`` is a triple of Expr (or numbers) replacing x, y, t.
    """
    repl = tuple(_as_expr(r) for r in repl)

    def walk(node):
        if isinstance(node, Const):
            return node
        if isinstance(node, Var):
            return repl[node.index]
        if isinstance(node, Add):
            return add(walk(node.a), walk(node.b))
        if isinstance(node, Sub):
            return sub(walk(node.a), walk(node.b))
        if isinstance(node, Mul):
            return mul(walk(node.a), walk(node.b))
        if isinstance(node, Div):
            return div(walk(node.a), walk(node.b))
        if isinstance(node, Pow):
            return pow_(walk(node.a), node.exponent)
        if isinstance(node, Neg):
            return neg(walk(node.a))
        if isinstance(node, Sin):
            return sin(walk(node.a))
        if isinstance(node, Cos):
            return cos(walk(node.a))
        if isinstance(node, Exp):
            return exp(walk(node.a))
        if isinstance(node, Sqrt):
            return Sqrt(walk(node.a))
        raise TypeError(f"unknown node {node!r}")

    return walk(e)


# kernel globals; inf and nan are what repr() gives for non-finite constants
_MATH_NS = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
            "_sqrt": math.sqrt, "inf": math.inf, "nan": math.nan}
_NUMPY_NS = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_sqrt": np.sqrt,
             "_f64": np.float64, "_empty": np.empty, "inf": math.inf,
             "nan": math.nan}


def _node_source(n: Expr, kids):
    """Structural signature and source of one operation node, given the
    names its children were emitted under."""
    if isinstance(n, Pow):
        return ("pow", kids[0], n.exponent), f"({kids[0]} ** {n.exponent!r})"
    if isinstance(n, _Binary):
        return (n.op,) + kids, f"({kids[0]} {n.op} {kids[1]})"
    if isinstance(n, Neg):
        return ("neg",) + kids, f"(-{kids[0]})"
    if isinstance(n, _Func):
        return (n.name,) + kids, f"_{n.name}({kids[0]})"
    raise TypeError(f"unknown node {n!r}")


def _cse_program(exprs):
    """Emit SSA-style source for expressions with structural CSE.

    Returns (lines, result_names), one name or literal per expression.
    Equal subtrees (structurally, not just by identity) are computed once,
    across all the expressions; this collapses the large symbolic curvature
    trees to a few hundred operations.  The walk is iterative and visits
    each node object once, so a tree that shares subtrees costs its distinct
    nodes, not its tree size.
    """
    table = {}   # structural signature -> name
    names = {}   # id(node) -> name or literal; ``exprs`` keeps the nodes alive
    lines = []
    for root in exprs:
        stack = [root]
        while stack:
            n = stack[-1]
            if id(n) in names:
                stack.pop()
                continue
            if isinstance(n, Const):
                names[id(n)] = repr(n.value)
            elif isinstance(n, Var):
                names[id(n)] = VAR_NAMES[n.index]
            else:
                todo = [c for c in n.children() if id(c) not in names]
                if todo:
                    stack.extend(todo)
                    continue
                sig, src = _node_source(n, tuple(names[id(c)] for c in n.children()))
                if sig not in table:
                    table[sig] = f"v{len(lines)}"
                    lines.append(f"{table[sig]} = {src}")
                names[id(n)] = table[sig]
            stack.pop()
    return lines, [names[id(e)] for e in exprs]


_FAST_CACHE: dict = {}


def compiled_cse(e, arrays: bool = False, math_floats: bool = False):
    """CSE-compiled kernel of one expression or of a list of expressions.

    One expression compiles to ``f(x, y, t)`` returning its value.  Scalar
    mode uses ``math`` functions, the fast path for ODE right-hand sides;
    with ``arrays=True`` it uses numpy and takes arrays (a constant
    expression returns a scalar, which the caller broadcasts).

    A list or tuple of k expressions compiles to one function whose common
    subexpressions are shared across all the outputs.  By default it uses
    numpy functions, so it gives the tree walk's values bit for bit, and x/0
    gives inf or nan as there (callers wrap calls in ``np.errstate`` where
    that is expected):

    * scalar mode: ``f(x, y, t)`` takes three numbers, evaluates in
      ``np.float64`` and returns a k-tuple; it equals ``[e.at(p) for e in
      exprs]``;
    * ``arrays=True``: ``f(P)`` takes an (n, 3) array of points and returns
      an (n, k) array, filled column by column, so constant outputs are
      broadcast; column j equals ``exprs[j].eval(P[:, 0], P[:, 1], P[:, 2])``.

    ``math_floats=True`` (scalar mode only) compiles a list with the
    ``math`` functions of the single scalar kernel instead: ``f(x, y, t)``
    computes on the numbers as given, with no ``np.float64`` conversion,
    and returns a k-tuple whose entry j equals ``compiled_cse(exprs[j])(x,
    y, t)`` bit for bit.  This is the ODE right-hand-side path for many
    coefficients at once.

    Kernels are cached by the identity of the expression objects; an entry
    keeps its expressions alive, so the ids in its key cannot be reused.
    """
    single = isinstance(e, Expr)
    if arrays and math_floats:
        raise ValueError("math_floats kernels take scalars, not arrays")
    math_floats = math_floats or (single and not arrays)
    exprs = (e,) if single else tuple(e)
    key = (id(e) if single else tuple(map(id, exprs)), arrays, math_floats)
    hit = _FAST_CACHE.get(key)
    if hit is not None:
        return hit[1]
    lines, results = _cse_program(exprs)
    if single:
        head, body = "x, y, t", lines + [f"return {results[0]}"]
    elif arrays:
        head = "P"
        body = (["x, y, t = P[:, 0], P[:, 1], P[:, 2]"] + lines
                + [f"out = _empty((P.shape[0], {len(exprs)}))"]
                + [f"out[:, {j}] = {r}" for j, r in enumerate(results)]
                + ["return out"])
    else:
        head = "x, y, t"
        convert = [] if math_floats else ["x, y, t = _f64(x), _f64(y), _f64(t)"]
        body = convert + lines + [f"return ({', '.join(results)},)"]
    ns = dict(_MATH_NS if math_floats else _NUMPY_NS)
    exec(f"def _f({head}):\n    " + "\n    ".join(body) + "\n", ns)  # noqa: S102
    fn = ns["_f"]
    _FAST_CACHE[key] = (exprs, fn)
    return fn
