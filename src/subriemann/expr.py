"""Small symbolic expression engine over chart coordinates.

Expressions are hash-consed DAGs over the variables x, y, t ("alpha" is
accepted as an alias for t when parsing, which reads naturally in the
roto-translation chart).  Nodes are interned by op, child identities and
constant, so structurally equal expressions are one object: equality is
identity, each node derives once per variable and keeps the result, and
equal expressions share one compiled kernel.  The one node class,
:class:`Expr`, takes its evaluation, derivative, ``str`` and kernel source
from an op table (:class:`Op`).  Just enough calculus for frame
coefficients, level-set functions and the curvature machinery on top.

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
import operator
import weakref

import numpy as np

VAR_NAMES = ("x", "y", "t")
_VAR_ALIASES = {"x": 0, "y": 1, "t": 2, "alpha": 2}


class DomainError(ValueError):
    """Raised when an expression is not evaluable on its declared box."""


class Expr:
    """One expression node: its op, its children (``args``) and its
    ``value``, which is the constant of a Const, the variable index of a Var,
    the exponent of a Pow and None otherwise.  Nodes are interned and
    immutable, so ``==`` and ``hash`` are those of identity."""

    __slots__ = ("op", "args", "value", "_diffs", "__weakref__")

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def eval(self, x, y, t):
        return self.op.evaluate(self, x, y, t)

    def diff(self, var: int) -> "Expr":
        """d/d(x, y, t)[var], built once per node and variable."""
        if var not in (0, 1, 2):
            raise ValueError(f"no variable with index {var!r}")
        memo = self._diffs
        if memo is None:
            memo = [None, None, None]
            _set(self, "_diffs", memo)
        if memo[var] is None:
            memo[var] = self.op.derive(self, var, *[a.diff(var) for a in self.args])
        return memo[var]

    def children(self):
        return self.args

    def at(self, p) -> float:
        """Evaluate at a single chart point (3 floats)."""
        return float(self.eval(p[0], p[1], p[2]))

    def __str__(self):
        texts = {}
        for n in _postorder((self,)):
            texts[n] = _render(n, [texts[c] for c in n.args], n.op.text)
        return texts[self]

    def __repr__(self):
        return f"Expr({self})"


# the intern table, filled from one thread; an entry lives as long as its node
_NODES = weakref.WeakValueDictionary()
_set = object.__setattr__


def _intern(op, args, value):
    # Keyed by child ids, so that no key keeps a node alive (the derivative of
    # an exp refers back to it), and by the signed constant, so that 0.0 and
    # -0.0 stay two nodes (kernels emit repr(value)).  Every nan is one key:
    # nan != nan, and repr writes each of them as nan.
    ids = map(id, args)
    if value is None:
        key = (op, *ids)
    elif math.isnan(value):
        key = (op, *ids, "nan")
    else:
        key = (op, *ids, value, math.copysign(1.0, value))
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(Expr)
        _set(node, "op", op)
        _set(node, "args", args)
        _set(node, "value", value)
        _set(node, "_diffs", None)
        _NODES[key] = node
    return node


class Op:
    """One kind of expression node, one row of the op table:

    * ``param``: None, or the type of the constant argument, which comes
      last in a call (``float`` for Const and Pow, ``int`` for Var);
    * ``evaluate(node, x, y, t)``: the tree-walk value;
    * ``derive(node, var, *child_derivatives)``: the derivative;
    * ``text`` and ``source``: ``str.format`` templates of ``str`` and of
      kernel source, over the children's renderings and ``p``, the value;
    * ``rebuild``: the constructor :func:`substitute` rebuilds the node with;
    * ``guard``: None, or (child index, test(values, eps), message) for
      :func:`validate_on_box`.

    Calling an op builds the interned node, unfolded: ``Const(1.5)``,
    ``Pow(a, 3.0)``, ``Sin(a)``, ``Add(a, b)``.  ``isinstance(e, op)`` is
    true when ``e`` is a node of that op."""

    __slots__ = ("name", "param", "evaluate", "derive", "text", "source",
                 "rebuild", "guard")

    def __init__(self, name, evaluate, derive, text, source=None, rebuild=None,
                 param=None, guard=None):
        self.name, self.param, self.evaluate, self.derive = name, param, evaluate, derive
        self.text, self.source = text, text if source is None else source
        self.rebuild, self.guard = rebuild or self, guard

    def __call__(self, *args):
        if self.param is None:
            return _intern(self, args, None)
        return _intern(self, args[:-1], self.param(args[-1]))

    def __instancecheck__(self, obj):
        return getattr(obj, "op", None) is self

    def __repr__(self):
        return self.name


def _render(n, kids, template) -> str:
    """``str`` or kernel source of one node from its children's renderings."""
    if n.op is Var:
        return VAR_NAMES[n.value]
    if n.op is Pow and kids[0].startswith("-"):
        # a negative constant base: -2.0 ^ 2.0 would read as -(2.0 ^ 2.0)
        kids = [f"({kids[0]})"]
    return template.format(*kids, p=n.value)


def _postorder(roots):
    """Every distinct node under ``roots`` once, children before parents: an
    iterative depth-first walk, last child first, costing the distinct nodes."""
    done = set()
    for root in roots:
        stack = [root]
        while stack:
            n = stack[-1]
            if n in done:
                stack.pop()
                continue
            todo = [c for c in n.args if c not in done]
            if todo:
                stack.extend(todo)
                continue
            done.add(n)
            stack.pop()
            yield n


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def _is_const(e: Expr, value=None):
    return e.op is Const and (value is None or e.value == value)


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
    if a is b:
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
        raise DomainError(f"division of {a} by a divisor that is identically zero")
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    if a is b:
        return ONE
    return Div(a, b)


def neg(a) -> Expr:
    a = _as_expr(a)
    if _is_const(a):
        return Const(-a.value)
    if a.op is Neg:
        return a.args[0]
    return Neg(a)


def pow_(a, exponent) -> Expr:
    a = _as_expr(a)
    if isinstance(exponent, Expr):
        if exponent.op is not Const:
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


def _power(base, exponent):
    # in np.float64, not Python floats: a negative base under a fractional
    # power is then nan, as in the kernels, not a complex number
    return (base if isinstance(base, np.ndarray) else np.float64(base)) ** exponent


def _infix(symbol, fn, derive, rebuild, guard=None):
    def evaluate(n, x, y, t):
        a, b = n.args
        return fn(a.op.evaluate(a, x, y, t), b.op.evaluate(b, x, y, t))
    return Op(symbol, evaluate, derive, f"({{0}} {symbol} {{1}})", rebuild=rebuild, guard=guard)


def _function(name, fn, derive, rebuild, guard=None):
    def evaluate(n, x, y, t):
        a = n.args[0]
        return fn(a.op.evaluate(a, x, y, t))
    return Op(name, evaluate, derive, name + "({0})", f"_{name}({{0}})", rebuild, guard=guard)


# The op table.  Derivative rules build through the smart constructors above
# (Sin and Cos call each other unfolded, as the chain rule leaves them).
Const = Op("const", lambda n, x, y, t: n.value, lambda n, var: ZERO, "{p!r}", param=float)
Var = Op("var", lambda n, x, y, t: (x, y, t)[n.value],
         lambda n, var: ONE if var == n.value else ZERO, None, param=int)
Add = _infix("+", operator.add, lambda n, var, da, db: add(da, db), add)
Sub = _infix("-", operator.sub, lambda n, var, da, db: sub(da, db), sub)
Mul = _infix("*", operator.mul,
             lambda n, var, da, db: add(mul(da, n.args[1]), mul(n.args[0], db)), mul)
Div = _infix("/", operator.truediv,
             lambda n, var, da, db: div(sub(mul(da, n.args[1]), mul(n.args[0], db)),
                                        mul(n.args[1], n.args[1])),
             div, (1, lambda v, eps: np.abs(v) < eps, "divisor {} vanishes on the declared box"))
Pow = Op("pow", lambda n, x, y, t: _power(n.args[0].eval(x, y, t), n.value),
         lambda n, var, da: mul(mul(Const(n.value), pow_(n.args[0], n.value - 1)), da),
         "({0} ^ {p!r})", "({0} ** {p!r})", pow_, param=float)
Neg = Op("neg", lambda n, x, y, t: -n.args[0].eval(x, y, t),
         lambda n, var, da: neg(da), "(-{0})", rebuild=neg)
Sin = _function("sin", np.sin, lambda n, var, da: mul(Cos(n.args[0]), da), sin)
Cos = _function("cos", np.cos, lambda n, var, da: neg(mul(Sin(n.args[0]), da)), cos)
Exp = _function("exp", np.exp, lambda n, var, da: mul(n, da), exp)
# substitute rebuilds square roots unfolded
Sqrt = _function("sqrt", np.sqrt, lambda n, var, da: div(da, mul(Const(2.0), n)), None,
                 (0, lambda v, eps: v < -eps, "sqrt argument {} is negative on the declared box"))


ZERO = Const(0.0)
ONE = Const(1.0)
X = Var(0)
Y = Var(1)
T = Var(2)


# operator sugar: a + b, 2 * a, -a, a ** 2.0, ... are the smart constructors
Expr.__add__, Expr.__sub__, Expr.__mul__, Expr.__truediv__ = add, sub, mul, div
Expr.__radd__, Expr.__rmul__ = (lambda a, b: add(b, a)), (lambda a, b: mul(b, a))
Expr.__rsub__, Expr.__rtruediv__ = (lambda a, b: sub(b, a)), (lambda a, b: div(b, a))
Expr.__neg__, Expr.__pow__ = neg, pow_


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
    """Parse an expression string over (x, y, t); "alpha" aliases t, and
    "inf" and "nan" are the non-finite constants."""
    tk = _Tokenizer(text)
    e = _parse_sum(tk)
    trailing = tk.peek()
    if trailing is not None:
        raise DomainError(f"unexpected trailing token {trailing!r} in {text!r}")
    return e


def _parse_chain(tk, operand, builders):
    """operand { op operand }, folded to the left."""
    e = operand(tk)
    while tk.peek() in builders:
        e = builders[tk.next()](e, operand(tk))
    return e


def _parse_sum(tk):
    return _parse_chain(tk, _parse_term, {"+": add, "-": sub})


def _parse_term(tk):
    return _parse_chain(tk, _parse_unary, {"*": mul, "/": div})


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
        if exponent.op is not Const:
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
    if tok in ("inf", "nan"):   # how str writes non-finite constants
        return Const(float(tok))
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
    argument goes negative.  Nodes are checked depth first, parents before
    children, each distinct node once.
    """
    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    gx, gy, gt = np.meshgrid(*axes, indexing="ij")
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.op.guard is not None:
            i, bad, message = node.op.guard
            values = np.asarray(node.args[i].eval(gx, gy, gt), dtype=float)
            if np.any(bad(values, eps)):
                raise DomainError(message.format(node.args[i]))
        stack.extend(reversed(node.args))


def fd_derivative(e: Expr, p, var: int, h: float = 1e-5):
    """Central finite difference; test oracle for symbolic differentiation."""
    hh = h * max(1.0, abs(p[var]))
    hi, lo = list(p), list(p)
    hi[var] += hh
    lo[var] -= hh
    return (e.at(hi) - e.at(lo)) / (2.0 * hh)


def substitute(e: Expr, repl) -> Expr:
    """Substitute expressions for the three variables (composition).

    ``repl`` is a triple of Expr (or numbers) replacing x, y, t.
    """
    repl = tuple(_as_expr(r) for r in repl)
    out = {}
    for n in _postorder((e,)):
        if n.op is Var:
            out[n] = repl[n.value]
        else:
            args = [out[c] for c in n.args]
            out[n] = n.op.rebuild(*args) if n.value is None else n.op.rebuild(*args, n.value)
    return out[e]


# kernel globals; inf and nan are what repr() gives for non-finite constants
_MATH_NS = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
            "_sqrt": math.sqrt, "inf": math.inf, "nan": math.nan}
_NUMPY_NS = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_sqrt": np.sqrt,
             "_f64": np.float64, "_empty": np.empty, "inf": math.inf, "nan": math.nan}


def _cse_program(exprs, f64=False):
    """Source of expressions: (lines, result_names), one name or literal per
    expression.  Equal subtrees are one node, so each distinct operation
    under all the expressions gets one line; this collapses the large
    symbolic curvature trees to a few hundred operations.  A line's name is
    given back once its last reader has run, unless it is a result, and the
    next line takes it, so a kernel keeps only live values: as many arrays
    at once as the expression DAG is wide, not one per line.  With ``f64``,
    the constants under an operation that reads no variable are made
    np.float64, so that such a subtree computes as the rest does."""
    order = list(_postorder(exprs))
    last = {}       # node -> position of its last reader
    for i, n in enumerate(order):
        for c in n.args:
            last[c] = i
    results = set(exprs)
    names = {}
    constant = {}   # node -> whether no variable lies under it
    lines = []
    free = []       # names whose value no later line reads
    count = 0
    for i, n in enumerate(order):
        kids = [names[c] for c in n.args]
        constant[n] = n.op is Const or (n.op is not Var and all(constant[c] for c in n.args))
        if n.args:
            if f64 and constant[n]:
                kids = [f"_f64({k})" if c.op is Const else k for c, k in zip(n.args, kids)]
            # the right side is evaluated before the name is bound, so the
            # line may take the name of a child it reads for the last time
            free.extend(names[c] for c in dict.fromkeys(n.args)
                        if c.args and last[c] == i and c not in results)
            if free:
                names[n] = free.pop()
            else:
                names[n] = f"v{count}"
                count += 1
            lines.append(f"{names[n]} = {_render(n, kids, n.op.source)}")
        else:
            names[n] = _render(n, kids, n.op.source)
    return lines, [names[e] for e in exprs]


_FAST_CACHE: dict = {}


def compiled_cse(exprs, mode: str = "numpy"):
    """CSE-compiled kernel of a list or tuple of k expressions.

    One function evaluates all k, computing each subexpression they share
    once.  ``mode`` picks the function's shape:

    * ``"numpy"``: ``f(x, y, t)`` takes three numbers, evaluates in
      ``np.float64`` with numpy functions and returns a k-tuple, entry j
      equal to ``exprs[j].at((x, y, t))`` bit for bit; x/0 gives inf or nan
      (callers wrap calls in ``np.errstate`` where that is expected);
    * ``"math"``: ``f(x, y, t)`` computes on the numbers as given with the
      ``math`` functions and returns a k-tuple: the ODE right-hand-side
      path, where x/0 raises ``ZeroDivisionError``;
    * ``"arrays"``: ``f(P)`` takes an (n, 3) array of points and returns an
      (n, k) array, filled column by column, so constant outputs are
      broadcast; column j equals ``exprs[j].eval(P[:, 0], P[:, 1], P[:, 2])``
      and, as in ``"numpy"`` mode, constants compute in ``np.float64``.

    Kernels are cached by the identity of the expressions, which equal
    expressions share; an entry keeps its expressions alive, so the ids in
    its key cannot be reused.
    """
    if isinstance(exprs, Expr):
        raise TypeError("compiled_cse takes a list of expressions, not one expression")
    if mode not in ("numpy", "math", "arrays"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    exprs = tuple(exprs)
    key = (tuple(map(id, exprs)), mode)
    hit = _FAST_CACHE.get(key)
    if hit is not None:
        return hit[1]
    lines, results = _cse_program(exprs, f64=mode != "math")
    if mode == "arrays":
        head = "P"
        body = (["x, y, t = P[:, 0], P[:, 1], P[:, 2]"] + lines
                + [f"out = _empty((P.shape[0], {len(exprs)}))"]
                + [f"out[:, {j}] = {r}" for j, r in enumerate(results)]
                + ["return out"])
    else:
        head = "x, y, t"
        convert = ["x, y, t = _f64(x), _f64(y), _f64(t)"] if mode == "numpy" else []
        body = convert + lines + [f"return ({', '.join(results)},)"]
    ns = dict(_MATH_NS if mode == "math" else _NUMPY_NS)
    exec(f"def _f({head}):\n    " + "\n    ".join(body) + "\n", ns)  # noqa: S102
    fn = ns["_f"]
    _FAST_CACHE[key] = (exprs, fn)
    return fn
