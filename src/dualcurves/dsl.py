"""Expression language for dual space curves.

Grammar (recursive descent, LL(1)):

    curve  := "[" expr "," expr "," expr "]"
    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | primary ("^" integer)?
    primary:= number | "t" | "eps" | name "(" expr ")" | "(" expr ")"

"^" takes integer literal exponents only and binds tighter than unary
minus, so "-t^2" means -(t^2).  Known function names are the analytic
set sin, cos, tan, sqrt, exp, log, atan; anything else is a parse
error.  Evaluation interprets t as a jet seed and eps as the dual unit,
so compiled curves have derivatives exact to round-off.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

from .curves import DualCurve
from .dual import ANALYTIC_FUNCTIONS, DualScalar, as_dual
from .errors import DomainError, EvalDomainError, ParseError, PureDualDivisor
from .jets import Jet

Node = Union["Num", "Sym", "Neg", "BinOp", "Pow", "Call"]


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sym:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: Node
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: Node
    right: Node
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: int
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: Node
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CurveExpr:
    components: tuple[Node, Node, Node]
    offset: int = field(default=0, compare=False)


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[\[\](),+\-*/^])
""", re.VERBOSE)


def _location(src: str, offset: int) -> tuple[int, int]:
    line = src.count("\n", 0, offset) + 1
    last = src.rfind("\n", 0, offset)
    return line, offset - last


def _error(src: str, offset: int, message: str, expected) -> ParseError:
    line, column = _location(src, offset)
    return ParseError(message, offset, line, column, expected=frozenset(expected))


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise _error(src, pos, f"unexpected character {src[pos]!r}",
                         ("number", "identifier", "operator"))
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        tokens.append((text if kind == "op" else kind, text, m.start()))
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, text, offset = self.peek()
        found = "end of input" if kind == "eof" else repr(text)
        names = sorted(expected)
        raise _error(self.src, offset,
                     f"expected {' or '.join(names)}, found {found}", names)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.fail((f"'{kind}'",))
        return self.advance()

    def expect_end(self):
        if self.peek()[0] != "eof":
            self.fail(("end of input",))

    def parse_curve(self) -> CurveExpr:
        _, _, offset = self.expect("[")
        components = [self.parse_expr()]
        while True:
            kind, _, close_offset = self.peek()
            if kind == ",":
                self.advance()
                components.append(self.parse_expr())
            elif kind == "]":
                self.advance()
                break
            else:
                self.fail(("','", "']'"))
        self.expect_end()
        if len(components) != 3:
            raise _error(self.src, close_offset,
                         f"a curve needs exactly 3 components, got {len(components)}",
                         ("','",) if len(components) < 3 else ("']'",))
        return CurveExpr(tuple(components), offset)

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.advance()
            node = BinOp(op, node, self.parse_term(), offset)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            node = BinOp(op, node, self.parse_factor(), offset)
        return node

    def parse_factor(self) -> Node:
        if self.peek()[0] == "-":
            _, _, offset = self.advance()
            return Neg(self.parse_factor(), offset)
        node = self.parse_primary()
        if self.peek()[0] == "^":
            _, _, offset = self.advance()
            node = Pow(node, self.parse_exponent(), offset)
        return node

    def parse_exponent(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        kind, text, offset = self.peek()
        if kind != "num" or not text.isdigit():
            self.fail(("integer exponent",))
        self.advance()
        return sign * int(text)

    def parse_primary(self) -> Node:
        kind, text, offset = self.peek()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise _error(self.src, offset, f"number {text} overflows a float",
                             ("finite number",))
            self.advance()
            return Num(value, offset)
        if kind == "ident":
            self.advance()
            if text == "t" or text == "eps":
                return Sym(text, offset)
            if text in ANALYTIC_FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(text, arg, offset)
            raise _error(self.src, offset, f"unknown identifier {text!r}",
                         ("'t'", "'eps'") + tuple(f"'{f}'" for f in ANALYTIC_FUNCTIONS))
        if kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        self.fail(("number", "'t'", "'eps'", "function call", "'('", "'-'"))

    def parse_scalar_source(self) -> Node:
        node = self.parse_expr()
        self.expect_end()
        return node


def parse(src: str) -> CurveExpr:
    """Parse a three-component curve definition "[x, y, z]"."""
    return _Parser(src).parse_curve()


def parse_scalar(src: str) -> Node:
    """Parse a scalar expression (dual constants like "1+eps*2")."""
    return _Parser(src).parse_scalar_source()


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt(node: Node, parent: int) -> str:
    if isinstance(node, Num):
        text = _fmt_num(node.value)
    elif isinstance(node, Sym):
        text = node.name
    elif isinstance(node, Call):
        text = f"{node.fn}({_fmt(node.arg, 0)})"
    elif isinstance(node, Neg):
        inner = _fmt(node.operand, _PREC_NEG)
        text = f"-{inner}"
    elif isinstance(node, Pow):
        base = _fmt(node.base, _PREC_ATOM)
        text = f"{base}^{node.exponent}"
    elif isinstance(node, BinOp):
        if node.op in "+-":
            left = _fmt(node.left, _PREC_ADD)
            right = _fmt(node.right, _PREC_ADD + 1)
            text = f"{left} {node.op} {right}"
        else:
            left = _fmt(node.left, _PREC_MUL)
            right = _fmt(node.right, _PREC_MUL + 1)
            text = f"{left}{node.op}{right}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if _prec(node) < parent:
        return f"({text})"
    return text


def format_expr(expr) -> str:
    """Canonical text form; parse(format_expr(e)) is structurally e."""
    if isinstance(expr, CurveExpr):
        return "[" + ", ".join(_fmt(c, 0) for c in expr.components) + "]"
    return _fmt(expr, 0)


def _eval_node(node: Node, t_jet: Jet, eps_jet: Jet) -> Jet:
    order = t_jet.order
    if isinstance(node, Num):
        return Jet.constant(node.value, order)
    if isinstance(node, Sym):
        return t_jet if node.name == "t" else eps_jet
    if isinstance(node, Neg):
        return -_eval_node(node.operand, t_jet, eps_jet)
    if isinstance(node, BinOp):
        left = _eval_node(node.left, t_jet, eps_jet)
        right = _eval_node(node.right, t_jet, eps_jet)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return left / right
        except PureDualDivisor as exc:
            raise EvalDomainError(f"division by a pure-dual value: {exc}",
                                  node.offset) from exc
    if isinstance(node, Pow):
        base = _eval_node(node.base, t_jet, eps_jet)
        try:
            return base**node.exponent
        except PureDualDivisor as exc:
            raise EvalDomainError(f"negative power of a pure-dual value: {exc}",
                                  node.offset) from exc
    if isinstance(node, Call):
        arg = _eval_node(node.arg, t_jet, eps_jet)
        try:
            return arg.apply(node.fn)
        except DomainError as exc:
            raise EvalDomainError(f"{node.fn}: {exc}", node.offset) from exc
    raise TypeError(f"not an expression node: {node!r}")


class ExprCurve(DualCurve):
    """A DualCurve compiled from a CurveExpr."""

    def __init__(self, expr: CurveExpr, domain, source: str | None = None):
        super().__init__(domain)
        self.expr = expr
        self.source = source if source is not None else format_expr(expr)

    def coord_jets(self, t0, order: int):
        t0 = as_dual(t0)
        self._check_domain(t0.re)
        t_jet = Jet.variable(t0, order)
        eps_jet = Jet.constant(DualScalar(0.0, 1.0), order)
        return tuple(_eval_node(c, t_jet, eps_jet) for c in self.expr.components)

    def __repr__(self):
        return f"ExprCurve({self.source!r}, domain={self.domain})"


def compile_curve(expr, domain, source: str | None = None) -> ExprCurve:
    """Compile an AST (or source text) and a parameter interval to a curve."""
    if isinstance(expr, str):
        return ExprCurve(parse(expr), domain, source=expr)
    return ExprCurve(expr, domain, source=source)


def evaluate_scalar(src) -> DualScalar:
    """Evaluate a parameter-free scalar expression to a DualScalar."""
    if isinstance(src, str):
        node, text = parse_scalar(src), src
    else:
        node, text = src, format_expr(src)
    _reject_t(node, text)
    value = _eval_node(node, Jet.variable(0.0, 0), Jet.constant(DualScalar(0.0, 1.0), 0))
    return value.coeffs[0]


def _reject_t(node: Node, src: str) -> None:
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Sym) and n.name == "t":
            raise _error(src, n.offset,
                         "the curve parameter 't' is not allowed in a scalar constant",
                         ("number", "'eps'"))
        if isinstance(n, Neg):
            stack.append(n.operand)
        elif isinstance(n, BinOp):
            stack.extend((n.left, n.right))
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, Call):
            stack.append(n.arg)


def render_caret(src: str, err: ParseError) -> str:
    """The offending source line with a caret under the error column."""
    lines = src.splitlines() or [""]
    row = min(err.line, len(lines)) - 1
    text = lines[row]
    return f"{text}\n{' ' * (err.column - 1)}^"
