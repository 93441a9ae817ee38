"""Parser and evaluators for the metric/J entry expression language.

Sources are closed-form expressions in the chart coordinates ``x1..xd``,
e.g. ``"1/(1 + x1^2 + x2^2)^2"``.  Grammar (EBNF, also in the repository
docs):

    expr     = term , { ( "+" | "-" ) , term } ;
    term     = unary , { ( "*" | "/" ) , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , { "^" , exponent } ;
    exponent = [ "-" ] , NUMBER | "(" , [ "-" ] , NUMBER , ")" ;
    atom     = NUMBER | VARIABLE | FUNCTION , "(" , expr , ")"
             | "(" , expr , ")" ;
    VARIABLE = "x" , DIGIT , { DIGIT } ;
    FUNCTION = "sin" | "cos" | "exp" | "log" | "sqrt" ;
    NUMBER   = DIGIT , { DIGIT } , [ "." , { DIGIT } ] , [ EXPONENT ]
             | "." , DIGIT , { DIGIT } , [ EXPONENT ] ;
    EXPONENT = ( "e" | "E" ) , [ "+" | "-" ] , DIGIT , { DIGIT } ;

Binding strength is ``^`` over unary minus over ``* /`` over ``+ -``
(so ``-x1^2`` is ``-(x1^2)``); binary operators associate left.  There is
no implicit multiplication.  ``^`` exponents are restricted to integer or
half-integer constants and are rejected at parse time otherwise.

Two evaluators are provided: :func:`evaluate` maps coordinates given as
jets to a jet (this is how all derivatives in the package are obtained),
and :func:`evaluate_values` is an independent plain-float walker used for
cheap predicate checks and as a cross-check path in the tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Sequence

from . import jets
from .errors import (
    EvaluationDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    VariableRangeError,
)

FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    pos: int = field(compare=False, default=0, kw_only=True)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    num: int  # 1-based, as written in the source


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: float  # integer or half-integer


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        if source[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[i]!r}", offset=i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, source: str, dim: int):
        self.source = source
        self.dim = dim
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str, what: str) -> int:
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            self.advance()
            return pos
        found = repr(text) if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected {what}, found {found}", offset=pos)

    def parse(self) -> Expr:
        if self.peek()[0] == "end":
            raise ExprSyntaxError("empty expression", offset=0)
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            hint = ""
            if kind in ("num", "ident") or text == "(":
                hint = " (no implicit multiplication; use '*')"
            raise ExprSyntaxError(f"unexpected token {text!r}{hint}", offset=pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term(), pos=pos)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary(), pos=pos)
            else:
                return node

    def unary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary(), pos=pos)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Power(node, self.exponent(), pos=pos)
            else:
                return node

    def exponent(self) -> float:
        kind, text, pos = self.peek()
        parens = kind == "op" and text == "("
        if parens:
            self.advance()
        sign = 1.0
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1.0
            kind, text, pos = self.peek()
        if kind != "num":
            found = repr(text) if kind != "end" else "end of input"
            raise ExprSyntaxError(
                f"exponent must be an integer or half-integer constant, found {found}",
                offset=pos,
            )
        self.advance()
        value = sign * float(text)
        if parens:
            self.expect_op(")", "')' closing the exponent")
        if 2.0 * value != round(2.0 * value):
            raise ExprSyntaxError(
                f"exponent must be an integer or half-integer constant, got {text}",
                offset=pos,
            )
        return value

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text), pos=pos)
        if kind == "ident":
            return self.ident(text, pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")", "')'")
            return node
        found = repr(text) if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a number, variable, or '(', found {found}", offset=pos)

    def ident(self, text: str, pos: int) -> Expr:
        m = re.fullmatch(r"x([0-9]+)", text)
        if m:
            num = int(m.group(1))
            if not 1 <= num <= self.dim:
                raise VariableRangeError(
                    f"variable {text} out of range; valid variables are x1..x{self.dim}",
                    offset=pos,
                )
            return Var(num, pos=pos)
        if text in FUNCTION_NAMES:
            self.expect_op("(", f"'(' after function name {text!r}")
            arg = self.expr()
            self.expect_op(")", "')'")
            return Call(text, arg, pos=pos)
        raise UnknownIdentifierError(
            f"unknown identifier {text!r}; expected a variable x1..x{self.dim} "
            f"or one of {', '.join(FUNCTION_NAMES)}",
            offset=pos,
        )


def parse(source: str, dim: int) -> Expr:
    """Parse ``source`` against chart dimension ``dim`` (variables x1..xdim)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return _Parser(source, dim).parse()


# ---------------------------------------------------------------------------
# evaluation


_JET_FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
}


def evaluate(expr: Expr, coords: Sequence[jets.Jet]) -> jets.Jet:
    """Evaluate on jet-valued coordinates; derivatives come along for free.

    Domain violations (log/sqrt of non-positive values, division by a
    zero-valued jet, zero base with negative power) raise
    :class:`EvaluationDomainError` annotated with the offending
    subexpression's source offset.
    """
    if not coords:
        raise ValueError("coords must contain at least one jet")
    dim, order = coords[0].dim, coords[0].order

    def walk(node: Expr) -> jets.Jet:
        try:
            if isinstance(node, Const):
                return jets.constant(node.value, dim, order)
            if isinstance(node, Var):
                return coords[node.num - 1]
            if isinstance(node, Neg):
                return -walk(node.arg)
            if isinstance(node, BinOp):
                left, right = walk(node.left), walk(node.right)
                if node.op == "+":
                    return left + right
                if node.op == "-":
                    return left - right
                if node.op == "*":
                    return left * right
                return left / right
            if isinstance(node, Power):
                return walk(node.base) ** node.exponent
            if isinstance(node, Call):
                return _JET_FUNCTIONS[node.func](walk(node.arg))
        except EvaluationDomainError as err:
            if err.offset is None:
                err.offset = node.pos
            raise
        raise TypeError(f"unknown AST node {node!r}")

    return walk(expr)


def evaluate_values(expr: Expr, xs: Sequence[float]) -> float:
    """Plain float evaluation; an independent path from the jet walker.

    A float operation that overflows or underflows into a division by zero
    raises :class:`EvaluationDomainError` at the offending subexpression.
    """

    def walk(node: Expr) -> float:
        try:
            return step(node)
        except (OverflowError, ZeroDivisionError) as err:
            raise EvaluationDomainError(
                f"float result out of range ({err})", offset=node.pos
            ) from None

    def step(node: Expr) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return float(xs[node.num - 1])
        if isinstance(node, Neg):
            return -walk(node.arg)
        if isinstance(node, BinOp):
            left, right = walk(node.left), walk(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if right == 0.0:
                raise EvaluationDomainError("division by zero", offset=node.pos)
            return left / right
        if isinstance(node, Power):
            base = walk(node.base)
            q = node.exponent
            if q == int(q):
                if base == 0.0 and q < 0:
                    raise EvaluationDomainError("zero base with negative power", offset=node.pos)
                return base ** int(q)
            if base <= 0.0:
                raise EvaluationDomainError(
                    f"half-integer power of non-positive value {base!r}", offset=node.pos
                )
            return base**q
        if isinstance(node, Call):
            arg = walk(node.arg)
            if node.func == "log":
                if arg <= 0.0:
                    raise EvaluationDomainError(f"log of non-positive value {arg!r}", offset=node.pos)
                return math.log(arg)
            if node.func == "sqrt":
                if arg <= 0.0:
                    raise EvaluationDomainError(f"sqrt of non-positive value {arg!r}", offset=node.pos)
                return math.sqrt(arg)
            return getattr(math, node.func)(arg)
        raise TypeError(f"unknown AST node {node!r}")

    return walk(expr)


# ---------------------------------------------------------------------------
# printing


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Power):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def to_source(expr: Expr) -> str:
    """Render an AST back to source.

    For parser-produced trees the round trip ``parse(to_source(e), dim)``
    reproduces ``e`` structurally.  (Programmatically built trees holding
    negative constants render through a unary minus instead.)
    """

    def wrap(node: Expr, minimum: int) -> str:
        s = walk(node)
        return f"({s})" if _prec(node) < minimum else s

    def walk(node: Expr) -> str:
        if isinstance(node, Const):
            if node.value < 0:
                return f"-{_fmt_number(-node.value)}"
            return _fmt_number(node.value)
        if isinstance(node, Var):
            return f"x{node.num}"
        if isinstance(node, Neg):
            return f"-{wrap(node.arg, _PREC_NEG)}"
        if isinstance(node, BinOp):
            left = wrap(node.left, _prec(node))
            right = wrap(node.right, _prec(node) + 1)
            return f"{left} {node.op} {right}"
        if isinstance(node, Power):
            base = wrap(node.base, _PREC_ATOM)
            exp = _fmt_number(node.exponent)
            if node.exponent < 0:
                exp = f"(-{_fmt_number(-node.exponent)})"
            return f"{base}^{exp}"
        if isinstance(node, Call):
            return f"{node.func}({walk(node.arg)})"
        raise TypeError(f"unknown AST node {node!r}")

    return walk(expr)


def variables_used(expr: Expr) -> set[int]:
    """1-based indices of the variables appearing in ``expr``."""
    out: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.num)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, Power):
            stack.append(node.base)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return out
