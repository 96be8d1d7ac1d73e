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
with ``""`` escaping a single quote. Each parenthesised group, function
argument list and unary sign is one level of nesting; a formula nested
more than ``MAX_NESTING`` levels deep is a ``ParseError``.
"""

from __future__ import annotations

import re

from .errors import ConfigError
from .values import UNSIGNED_NUMBER, render_number

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


class Token:
    __slots__ = ("kind", "lexeme", "offset")

    def __init__(self, kind: str, lexeme: str, offset: int):
        self.kind = kind  # number | string | boolean | cellref | name | operator | punctuation
        self.lexeme = lexeme
        self.offset = offset


# --- AST ------------------------------------------------------------------

class _Node:
    """Equal, and hashed alike, when of one class with equal fields: a
    ``Literal`` never equals a ``NameRef`` of the same text."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __repr__(self):
        return f"{self.__class__.__name__}({', '.join(map(repr, self._fields()))})"


class Literal(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value  # float | str | bool


class CellRef(_Node):
    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col


class RangeRef(_Node):
    __slots__ = ("start", "end")

    def __init__(self, start: CellRef, end: CellRef):
        self.start = start
        self.end = end


class NameRef(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name  # uppercased


class Unary(_Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand):
        self.op = op
        self.operand = operand


class Binary(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


class Call(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name  # uppercased
        self.args = args


FormulaAst = object  # any of the node classes above


# --- Lexer ----------------------------------------------------------------

_CELLREF = re.compile(r"\$?([A-Za-z]{1,3})\$?([1-9][0-9]{0,6})")
_WORD_END = r"(?![A-Za-z0-9_.])"  # no name character follows

# One alternative per token kind, tried in this order. A cell reference
# with a ``$`` ends where its row does (``A$1B`` is ``A$1`` then ``B``);
# one without is a whole word (``A1B`` is a name), as is a boolean.
_TOKEN = re.compile(
    r"(?P<space>[ \t]+)"
    r'|(?P<string>"[^"]*(?:""[^"]*)*"(?!"))'
    rf"|(?P<number>(?=\.?[0-9]){UNSIGNED_NUMBER})"
    rf"|(?P<cellref>(?=[A-Za-z]{{0,3}}\$){_CELLREF.pattern}|{_CELLREF.pattern}{_WORD_END})"
    rf"|(?P<boolean>(?i:TRUE|FALSE){_WORD_END})"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<operator>[<>]=|<>|[=<>+\-*/^&])"
    r"|(?P<punctuation>[(),:])"
)


def tokenize(source: str, base: int = 0) -> list[Token]:
    """Lex a formula body (leading ``=`` already stripped).

    ``base`` is added to every offset, for callers holding a fragment
    of a larger source.
    """
    tokens: list[Token] = []
    i = 0
    while i < len(source):
        match = _TOKEN.match(source, i)
        if match is None:
            if source[i] == '"':
                raise LexError(base + i, source[i:], "unterminated string")
            raise LexError(base + i, source[i], "illegal character")
        if match.lastgroup != "space":
            tokens.append(Token(match.lastgroup, match.group(), base + i))
        i = match.end()
    return tokens


def token_kind(text: str) -> str | None:
    """The kind of token ``text`` is, if it is exactly one token; else None."""
    match = _TOKEN.match(text)
    return match.lastgroup if match and match.end() == len(text) else None


def cell_position(text: str) -> tuple[int, int] | None:
    """(row, column) of a cell reference's text, or None if it is not one."""
    match = _CELLREF.fullmatch(text)
    return match and (int(match.group(2)), column_index(match.group(1)))


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
    return CellRef(*cell_position(token.lexeme))


# --- Parser ---------------------------------------------------------------

_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")
MAX_NESTING = 64  # as in a spreadsheet; it bounds the parser's recursion and IF's indentation


class _Parser:
    def __init__(self, tokens: list[Token], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.depth = 0

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

    def take(self, lexeme: str) -> Token | None:
        """The next token, consumed, if it is the punctuation ``lexeme``."""
        token = self.peek()
        if token is not None and token.kind == "punctuation" and token.lexeme == lexeme:
            return self.advance()
        return None

    def expect(self, lexeme: str) -> None:
        if not self.take(lexeme):
            self.fail(repr(lexeme))

    def at_operator(self, ops) -> str | None:
        token = self.peek()
        if token is not None and token.kind == "operator" and token.lexeme in ops:
            return token.lexeme
        return None

    def parse_expr(self):
        return self.parse_binary(0)

    def nested(self, token: Token, parse):
        """``parse()``, one level of nesting inside ``token``."""
        if self.depth == MAX_NESTING:
            raise ParseError(token.offset, f"at most {MAX_NESTING} levels of nesting",
                             repr(token.lexeme))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

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
            return Unary(token.lexeme, self.nested(token, self.parse_unary))
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
            if self.take(":"):
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
            if opener := self.take("("):
                return Call(token.lexeme.upper(), self.nested(opener, self.parse_args))
            return NameRef(token.lexeme.upper())
        if self.take("("):
            inner = self.nested(token, self.parse_expr)
            self.expect(")")
            return inner
        self.fail("a value, reference, or '('")

    def parse_args(self) -> tuple:
        """A function's arguments, up to and including its ``)``."""
        if self.take(")"):
            return ()
        args = [self.parse_expr()]
        while self.take(","):
            args.append(self.parse_expr())
        self.expect(")")
        return tuple(args)


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
    if cls is Binary:  # a left-deep chain in a loop: its length costs no recursion
        chain = []
        while node.__class__ is Binary:
            chain.append(node)
            node = node.left
        text = render_ast(node)
        for parent in reversed(chain):
            prec = _PRECEDENCE[parent.op]
            if _node_precedence(node) < prec:
                text = f"({text})"
            right = render_ast(parent.right)
            if _node_precedence(parent.right) <= prec:
                right = f"({right})"
            text = f"{text}{parent.op}{right}"
            node = parent
        return text
    raise TypeError(f"not an AST node: {node!r}")


def render_formula(ast: FormulaAst) -> str:
    """Canonical formula text, including the leading ``=``."""
    return "=" + render_ast(ast)
