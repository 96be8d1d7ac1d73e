"""Lexer and recursive-descent parser for the cell formula language.

Grammar (highest binding last):

    formula := "=" expr
    expr    := cmp
    cmp     := concat {("="|"<>"|"<"|"<="|">"|">=") concat}
    concat  := add {"&" add}
    add     := mul {("+"|"-") mul}
    mul     := pow {("*"|"/") pow}
    pow     := unary {"^" unary}
    unary   := ["-"|"+"] primary
    primary := number | string | boolean | cellref | range | name
             | funcall | "(" expr ")"
    range   := cellref ":" cellref
    funcall := name "(" [expr {"," expr}] ")"

Unary minus binds tighter than "^", so ``=-2^2`` is 4 -- spreadsheet
semantics, the opposite of most programming languages. ``$`` absolute
markers are accepted and ignored. String literals are double quoted
with ``""`` escaping a single quote.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "Token",
    "LexError",
    "ParseError",
    "Literal",
    "CellRef",
    "RangeRef",
    "NameRef",
    "Unary",
    "Binary",
    "Call",
    "tokenize",
    "parse_formula",
    "extract_references",
    "render_ast",
    "render_formula",
]


class LexError(ConfigError):
    """An illegal character or unterminated string in a formula."""

    def __init__(self, offset: int, found: str, message: str):
        self.offset = offset
        self.found = found
        super().__init__(f"{message} at offset {offset}: {found!r}")


class ParseError(ConfigError):
    """The token stream does not match the formula grammar."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"expected {expected} at offset {offset}, found {found}")


@dataclass(frozen=True)
class Token:
    kind: str  # number | string | boolean | cellref | name | operator | punctuation
    lexeme: str
    offset: int


# --- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: object  # float | str | bool


@dataclass(frozen=True)
class CellRef:
    row: int
    col: int


@dataclass(frozen=True)
class RangeRef:
    start: CellRef
    end: CellRef


@dataclass(frozen=True)
class NameRef:
    name: str  # uppercased


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str  # uppercased
    args: tuple


FormulaAst = object  # any of the node classes above


# --- Lexer ----------------------------------------------------------------

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_CELLREF = re.compile(r"\$?([A-Za-z]{1,3})\$?([1-9][0-9]{0,6})")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_PURE_CELLREF = re.compile(r"([A-Za-z]{1,3})([1-9][0-9]{0,6})")

_OPERATORS = ("<=", ">=", "<>", "=", "<", ">", "+", "-", "*", "/", "^", "&")
_PUNCTUATION = "(),:"


def _is_ascii_digit(c: str) -> bool:
    return "0" <= c <= "9"


def _is_name_start(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"


def tokenize(source: str, base: int = 0) -> list[Token]:
    """Lex a formula body (leading ``=`` already stripped).

    ``base`` is added to every offset, for callers holding a fragment
    of a larger source.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t":
            i += 1
            continue
        if c == '"':
            j = i + 1
            while True:
                if j >= n:
                    raise LexError(base + i, source[i:], "unterminated string")
                if source[j] == '"':
                    if j + 1 < n and source[j + 1] == '"':
                        j += 2
                        continue
                    j += 1
                    break
                j += 1
            tokens.append(Token("string", source[i:j], base + i))
            i = j
            continue
        if _is_ascii_digit(c) or (c == "." and i + 1 < n and _is_ascii_digit(source[i + 1])):
            m = _NUMBER.match(source, i)
            tokens.append(Token("number", m.group(), base + i))
            i = m.end()
            continue
        if c == "$":
            m = _CELLREF.match(source, i)
            if not m:
                raise LexError(base + i, c, "illegal character")
            tokens.append(Token("cellref", m.group(), base + i))
            i = m.end()
            continue
        if _is_name_start(c):
            m = _CELLREF.match(source, i)
            if m and "$" in m.group():
                tokens.append(Token("cellref", m.group(), base + i))
                i = m.end()
                continue
            m = _NAME.match(source, i)
            lexeme = m.group()
            upper = lexeme.upper()
            if _PURE_CELLREF.fullmatch(lexeme):
                tokens.append(Token("cellref", lexeme, base + i))
            elif upper in ("TRUE", "FALSE"):
                tokens.append(Token("boolean", lexeme, base + i))
            else:
                tokens.append(Token("name", lexeme, base + i))
            i = m.end()
            continue
        two = source[i : i + 2]
        if two in ("<=", ">=", "<>"):
            tokens.append(Token("operator", two, base + i))
            i += 2
            continue
        if c in "=<>+-*/^&":
            tokens.append(Token("operator", c, base + i))
            i += 1
            continue
        if c in _PUNCTUATION:
            tokens.append(Token("punctuation", c, base + i))
            i += 1
            continue
        raise LexError(base + i, c, "illegal character")
    return tokens


def decode_string(lexeme: str) -> str:
    """The value of a string token: quotes stripped, ``""`` unescaped."""
    return lexeme[1:-1].replace('""', '"')


def column_index(letters: str) -> int:
    """Bijective base-26 column index: A -> 1, Z -> 26, AA -> 27."""
    index = 0
    for ch in letters.upper():
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index


def column_letters(index: int) -> str:
    """Inverse of :func:`column_index`."""
    letters = ""
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def _cellref_node(token: Token) -> CellRef:
    m = _CELLREF.fullmatch(token.lexeme)
    row = int(m.group(2))
    col = column_index(m.group(1))
    return CellRef(row, col)


# --- Parser ---------------------------------------------------------------

_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens: list[Token], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, expected: str):
        token = self.peek()
        if token is None:
            raise ParseError(self.length, expected, "end of formula")
        raise ParseError(token.offset, expected, repr(token.lexeme))

    def expect(self, kind: str, lexeme: str) -> Token:
        token = self.peek()
        if token is None or token.kind != kind or token.lexeme != lexeme:
            self.fail(repr(lexeme))
        return self.advance()

    def at_operator(self, ops) -> str | None:
        token = self.peek()
        if token is not None and token.kind == "operator" and token.lexeme in ops:
            return token.lexeme
        return None

    def parse_expr(self):
        return self.parse_binary(0)

    # Precedence levels, loosest first: comparisons, &, +/-, * and /, ^.
    _LEVELS = (_CMP_OPS, ("&",), ("+", "-"), ("*", "/"), ("^",))

    def parse_binary(self, level: int):
        if level == len(self._LEVELS):
            return self.parse_unary()
        node = self.parse_binary(level + 1)
        while (op := self.at_operator(self._LEVELS[level])) is not None:
            self.advance()
            node = Binary(op, node, self.parse_binary(level + 1))
        return node

    def parse_unary(self):
        token = self.peek()
        if token is not None and token.kind == "operator" and token.lexeme in ("-", "+"):
            self.advance()
            return Unary(token.lexeme, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        token = self.peek()
        if token is None:
            self.fail("a value, reference, or '('")
        if token.kind == "number":
            self.advance()
            return Literal(float(token.lexeme))
        if token.kind == "string":
            self.advance()
            return Literal(decode_string(token.lexeme))
        if token.kind == "boolean":
            self.advance()
            return Literal(token.lexeme.upper() == "TRUE")
        if token.kind == "cellref":
            self.advance()
            start_ref = _cellref_node(token)
            colon = self.peek()
            if colon is not None and colon.kind == "punctuation" and colon.lexeme == ":":
                self.advance()
                other = self.peek()
                if other is None or other.kind != "cellref":
                    self.fail("a cell reference after ':'")
                self.advance()
                end_ref = _cellref_node(other)
                lo = CellRef(
                    min(start_ref.row, end_ref.row), min(start_ref.col, end_ref.col)
                )
                hi = CellRef(
                    max(start_ref.row, end_ref.row), max(start_ref.col, end_ref.col)
                )
                return RangeRef(lo, hi)
            return start_ref
        if token.kind == "name":
            self.advance()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "punctuation" and nxt.lexeme == "(":
                self.advance()
                args = []
                closer = self.peek()
                if closer is not None and closer.kind == "punctuation" and closer.lexeme == ")":
                    self.advance()
                else:
                    while True:
                        args.append(self.parse_expr())
                        sep = self.peek()
                        if sep is not None and sep.kind == "punctuation" and sep.lexeme == ",":
                            self.advance()
                            continue
                        break
                    self.expect("punctuation", ")")
                return Call(token.lexeme.upper(), tuple(args))
            return NameRef(token.lexeme.upper())
        if token.kind == "punctuation" and token.lexeme == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("punctuation", ")")
            return inner
        self.fail("a value, reference, or '('")


def parse_formula(source: str) -> FormulaAst:
    """Parse a full formula, which must begin with ``=``.

    Error offsets index into ``source`` itself, including the ``=``.
    """
    if not source.startswith("="):
        raise ParseError(0, "'='", repr(source[:1] or "end of formula"))
    parser = _Parser(tokenize(source[1:], base=1), len(source))
    ast = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(trailing.offset, "end of formula", repr(trailing.lexeme))
    return ast


def extract_references(ast: FormulaAst) -> set:
    """All cell, range, and defined-name references in the tree."""
    refs: set = set()
    stack = [ast]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls in (CellRef, RangeRef, NameRef):
            refs.add(node)
        elif cls is Unary:
            stack.append(node.operand)
        elif cls is Binary:
            stack.append(node.left)
            stack.append(node.right)
        elif cls is Call:
            stack.extend(node.args)
    return refs


# --- Canonical rendering ---------------------------------------------------

_PRECEDENCE = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1, "&": 2, "+": 3, "-": 3, "*": 4, "/": 4, "^": 5}
_UNARY_PRECEDENCE = 6
_ATOM_PRECEDENCE = 7


def _render_literal(value) -> str:
    if value.__class__ is bool:
        return "TRUE" if value else "FALSE"
    if value.__class__ is float:
        from .values import render_number

        return render_number(value)
    return '"%s"' % str(value).replace('"', '""')


def _node_precedence(node) -> int:
    cls = node.__class__
    if cls is Binary:
        return _PRECEDENCE[node.op]
    if cls is Unary:
        return _UNARY_PRECEDENCE
    return _ATOM_PRECEDENCE


def render_ast(node) -> str:
    """Canonical text for an AST; re-parsing yields an equal tree."""
    cls = node.__class__
    if cls is Literal:
        return _render_literal(node.value)
    if cls is CellRef:
        return f"{column_letters(node.col)}{node.row}"
    if cls is RangeRef:
        return f"{render_ast(node.start)}:{render_ast(node.end)}"
    if cls is NameRef:
        return node.name
    if cls is Call:
        return f"{node.name}({','.join(render_ast(a) for a in node.args)})"
    if cls is Unary:
        inner = render_ast(node.operand)
        if _node_precedence(node.operand) < _UNARY_PRECEDENCE:
            inner = f"({inner})"
        return f"{node.op}{inner}"
    if cls is Binary:
        prec = _PRECEDENCE[node.op]
        left = render_ast(node.left)
        if _node_precedence(node.left) < prec:
            left = f"({left})"
        right = render_ast(node.right)
        if _node_precedence(node.right) <= prec:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an AST node: {node!r}")


def render_formula(ast: FormulaAst) -> str:
    """Canonical formula text, including the leading ``=``."""
    return "=" + render_ast(ast)
