"""Dependency graph construction and deterministic recalculation.

Every evaluation runs a *plan*: formula cells in topological order as
generated code over the workbook's value dict. ``recalculate`` and
``evaluate_source`` compile it into one function ``run(values,
row=())``; the record loops of ``run`` and ``compare`` take it as
statements (``inline_plan``) inside the loop they generate. In it each
plan cell and each field of ``row`` is a local, a precedent outside the
plan is read from ``values`` where a formula reads it, and operator and
function implementations are constants called directly, or direct code
where an operand's kind (text, bool, number) is known. ``IF`` is an
``if``/``else``: its condition, then only the branch taken. Every value
read or computed that can be an error is checked, and an error breaks
out of its cell where the formula first meets it, left to right.
``recalculate``'s plans write every cell; a record loop's plan writes
only those a range or a later generated function reads. A plan of more
than ``_CHUNK`` cells is several functions: the last one calls those
before it.

A record loop's plan is pruned by demand: cells downstream of the fields
and upstream of the output, skip or status cells. ``recalculate``
evaluates every cell downstream of its dirty cells, and caches its plan
per dirty set. Before a loop starts, ``inline_plan`` copies the
workbook's values once and evaluates into the copy the cells its plan
reads that no record changes: the loop runs over the copy, and the
workbook keeps the values it had. A loop is compiled once per call, so
nothing is rebuilt per record.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConfigError
from .formula import Binary, Call, CellRef, Literal, NameRef, RangeRef, Unary
from .formula import extract_references, parse_formula
from .functions import BOOL, NUMBER, RANGE_ONLY, SCALAR, TEXT, arabic_value, lookup
from .values import (
    BLANK,
    BINARY_OPS,
    Blank,
    CellError,
    CellValue,
    NAME_ERROR,
    NUM_ERROR,
    RangeValue,
    REF_ERROR,
    UNARY_OPS,
    VALUE_ERROR,
    render_number,
    render_value,
    to_boolean,
)
from .workbook import MAX_COLS, MAX_ROWS, CellAddress, Workbook

__all__ = [
    "DependencyGraph",
    "Plan",
    "CycleError",
    "UnknownNameError",
    "build_graph",
    "inline_plan",
    "recalculate",
    "evaluate_source",
]


class CycleError(ConfigError):
    """The formula cells contain a reference cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("formula cycle: " + " -> ".join(cycle))


class UnknownNameError(ConfigError):
    """A formula references a defined name that does not exist."""


# --- Code generation -----------------------------------------------------------

# Operand kinds known at compile time. An operand is a value that is
# not an error (it was checked where it was produced): TEXT (a str), BOOL,
# NUMBER (a float) or _ANY of these or blank. A _RANGE operand is a
# constant tuple of key rows, read only where a function takes a range.
# Whether a cell can hold an error is tracked apart from its kind.
_ANY, _RANGE = "any", "range"
_TEXT_COMPARE = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_CHUNK = 8  # plan cells per generated function; compile() memory grows with it


def _block(get, key_rows):
    """A range's values, or the first error among them in row-major order."""
    block = RangeValue([[get(k, BLANK) for k in row] for row in key_rows])
    return next((v for v in block if v.__class__ is CellError), block)


# The names generated code and the direct forms of functions use.
_GLOBALS = {"BLANK": BLANK, "Blank": Blank, "CellError": CellError, "_block": _block,
            "render_number": render_number, "render_value": render_value,
            "to_boolean": to_boolean, "arabic_value": arabic_value}


class _Emitter:
    """Writes the body of one generated plan function, cell by cell.

    Each cell is a ``while True:`` block that an error leaves by
    ``break`` with the error as the cell's value. The function unpacks
    the keys in ``fields`` from its ``row`` argument.
    """

    def __init__(self, wb: Workbook, fields=(), carry=()):
        self.wb = wb
        self.fields = fields
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}  # globals of the generated function
        self.values = wb.values  # the value dict a defined function reads as ``values``
        # plan cell, field or carry key -> local name, and the kind of its value
        self.locals = {key: f"p{i}" for i, key in enumerate(fields)}
        self.kinds = dict.fromkeys(self.locals, TEXT)
        self.carry = carry  # keys whose value, never an error, the caller sets
        self.locals.update((key, f"q{i}") for i, key in enumerate(carry))
        self.kinds.update(dict.fromkeys(carry, _ANY))
        self.fails: set[tuple] = set()  # plan cells whose value can be an error
        self.temps = 0
        self.indent = "    "

    def const(self, value) -> str:
        name = f"k{len(self.consts)}"
        self.consts[name] = value
        return name

    def emit(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def check(self, operand: str) -> None:
        """Leave the cell with ``operand`` as its value if it is an error."""
        self.emit(f"if {operand}.__class__ is CellError: {self.target} = {operand}; break")
        self.breaks = True

    def temp(self, expr: str, checked: bool = True) -> str:
        """A new local holding ``expr``, checked for an error if ``checked``."""
        name = f"t{self.temps}"
        self.temps += 1
        self.emit(f"{name} = {expr}")
        if checked:
            self.check(name)
        return name

    def fail(self, error: CellValue):
        """The cell's value is ``error`` once evaluation gets here."""
        name = self.const(error)
        self.emit(f"{self.target} = {name}")
        self.emit("break")
        self.breaks = True
        return name, _ANY

    def text(self, operand: str, kind) -> str:
        """Code for the text an operand renders as."""
        if kind is TEXT:
            return operand
        if kind is BOOL:
            return f'("TRUE" if {operand} else "FALSE")'
        return f"{'render_number' if kind is NUMBER else 'render_value'}({operand})"

    def cell(self, key: tuple, ast, write: bool) -> None:
        target = self.target = f"c{len(self.locals)}"
        self.breaks = False
        self.lines.append("while True:")
        operand, kind = self.expr(ast, key[0])
        if kind is _RANGE:  # a bare range is no cell value
            _, kind = self.fail(VALUE_ERROR)
        else:
            self.emit(f"{target} = {operand}")
            self.emit("break")
        self.locals[key] = target
        self.kinds[key] = kind
        if self.breaks:
            self.fails.add(key)
        if write:
            self.lines.append(f"values[{key!r}] = {target}")

    def read(self, key: tuple):
        """A cell's value, checked where it is referenced if it can be an error."""
        local = self.locals.get(key)
        if local is None:
            return self.temp(f"get({key!r}, BLANK)"), _ANY
        if key in self.fails:
            self.check(local)
        return local, self.kinds[key]

    def if_else(self, args, sheet: str):
        """IF's condition, then each branch under an ``if``/``else``
        into one local; the branch not taken is never evaluated."""
        condition, kind = self.expr(args[0], sheet)
        if kind is _RANGE:
            return self.fail(VALUE_ERROR)
        if kind is not BOOL and kind is not NUMBER:  # a number is true unless zero
            condition = self.temp(f"to_boolean({condition})")
        result = f"t{self.temps}"
        self.temps += 1
        otherwise = args[2] if len(args) > 2 else None  # a missing branch gives FALSE
        kinds = []
        for head, arg in (f"if {condition}:", args[1]), ("else:", otherwise):
            self.emit(head)
            self.indent += "    "
            operand, kind = ("False", BOOL) if arg is None else self.expr(arg, sheet)
            if kind is _RANGE:
                _, kind = self.fail(VALUE_ERROR)
            else:
                self.emit(f"{result} = {operand}")
            self.indent = self.indent[:-4]
            kinds.append(kind)
        return result, kinds[0] if kinds[0] is kinds[1] else _ANY

    def binary(self, op: str, left, left_kind, right, right_kind):
        """``left op right`` from its checked operands and their kinds."""
        if left_kind is _RANGE or right_kind is _RANGE:
            return self.fail(VALUE_ERROR)  # every operator rejects a range
        if op == "&":  # a local, not nested parentheses: Python stops at 200
            text = f"{self.text(left, left_kind)} + {self.text(right, right_kind)}"
            return self.temp(text, checked=False), TEXT
        compare = _TEXT_COMPARE.get(op)
        if compare and left_kind is TEXT and right_kind is TEXT:
            return f"({left}.upper() {compare} {right}.upper())", BOOL
        operation = f"{self.const(BINARY_OPS[op])}({left}, {right})"
        return self.temp(operation), NUMBER if compare is None else BOOL

    def expr(self, node, sheet: str):
        cls = node.__class__
        wb = self.wb

        if cls is Literal:
            v = node.value  # a float, str or bool
            if v.__class__ is float and not math.isfinite(v):
                v = NUM_ERROR  # numbers are finite end-to-end
            if v.__class__ is CellError:
                return self.fail(v)
            kind = {str: TEXT, bool: BOOL, float: NUMBER}.get(v.__class__, _ANY)
            return (self.const(v) if kind is _ANY else repr(v)), kind

        if cls is CellRef:
            if not (1 <= node.row <= MAX_ROWS and 1 <= node.col <= MAX_COLS):
                return self.fail(REF_ERROR)
            return self.read((sheet, node.row, node.col))

        if cls is RangeRef:
            start, end = node.start, node.end
            return _key_rows(sheet, start.row, start.col, end.row, end.col), _RANGE

        if cls is NameRef:
            if not wb.has_name(node.name):
                return self.fail(NAME_ERROR)
            rng = wb.resolve_name(node.name)
            if rng.size() == 1:
                return self.read(next(rng.keys()))
            s, e = rng.start, rng.end
            return _key_rows(s.sheet.upper(), s.row, s.col, e.row, e.col), _RANGE

        if cls is Unary:
            operand, kind = self.expr(node.operand, sheet)
            if kind is _RANGE:
                return self.fail(VALUE_ERROR)
            return self.temp(f"{self.const(UNARY_OPS[node.op])}({operand})"), NUMBER

        if cls is Binary:
            # A chain like 1+1+...+1 is a left-deep tree: walk its left
            # side in a loop, so its length costs no recursion.
            chain = []
            while node.__class__ is Binary:
                chain.append(node)
                node = node.left
            left, kind = self.expr(node, sheet)
            for node in reversed(chain):
                left, kind = self.binary(node.op, left, kind, *self.expr(node.right, sheet))
            return left, kind

        if cls is Call:
            sig = lookup(node.name)
            if sig is None:
                return self.fail(NAME_ERROR)
            if len(node.args) < sig.min_args or (
                sig.max_args is not None and len(node.args) > sig.max_args
            ):
                return self.fail(VALUE_ERROR)
            if sig.name == "IF":
                return self.if_else(node.args, sheet)
            args, texts = [], []
            for i, arg in enumerate(node.args):
                arg_kind = sig.arg_kinds[min(i, len(sig.arg_kinds) - 1)]
                operand, kind = self.expr(arg, sheet)
                if kind is _RANGE:
                    if arg_kind is SCALAR:
                        return self.fail(VALUE_ERROR)
                    operand = self.temp(f"_block(get, {self.const(operand)})")
                elif arg_kind is RANGE_ONLY:
                    return self.fail(VALUE_ERROR)
                args.append(operand)
                texts.append(self.text(operand, kind))
            if sig.direct is not None:
                code, kind, fails = sig.direct
                return self.temp(code.format(*args, t=texts), checked=fails), kind
            return self.temp(f"{self.const(sig.impl)}([{', '.join(args)}])"), _ANY

        raise TypeError(f"not an AST node: {node!r}")

    def statements(self, top, before=()) -> list[str]:
        """The plan as statements over ``values``, ``get`` and ``row``:
        unpack ``row`` into the field locals, write the ``top`` fields to
        ``values``, call each ``before`` function, then the cells."""
        head = []
        if self.fields:
            head.append("".join(f"p{i}, " for i in range(len(self.fields))) + "= row")
        head += [f"values[{key!r}] = {self.locals[key]}" for key in top]
        head += [f"{self.const(run)}(values, row)" for run in before]
        return head + self.lines

    def operand(self, key: tuple) -> str:
        """Code for a cell's value once the statements have run."""
        return self.locals.get(key) or f"get({key!r}, BLANK)"

    def can_fail(self, key: tuple) -> bool:
        """Whether ``operand(key)`` can be an error value."""
        return key in self.fails or key not in self.locals

    def text_of(self, key: tuple) -> str:
        """Code for the text ``operand(key)`` renders as, once it is
        known to be no error."""
        return self.text(self.operand(key), self.kinds.get(key, _ANY))

    def define(self, name: str, label: str, source: str, **names):
        """Compile ``source`` with this emitter's globals, ``values`` and
        ``names``; returns what it defines as ``name``. ``label`` names the
        source in tracebacks."""
        namespace = {**_GLOBALS, "values": self.values, **self.consts, **names}
        exec(compile(source, f"<{label}>", "exec"), namespace)
        return namespace[name]

    def function(self, label: str, before=(), observed=()):
        """Compile the cells emitted so far into ``run(values, row=())``,
        which runs ``statements((), before)`` and returns the
        ``observed`` values as a tuple."""
        returns = "".join(f"{self.operand(key)}, " for key in observed)
        body = ["get = values.get", *self.statements((), before), f"return ({returns})"]
        source = "def run(values, row=()):\n" + "".join(f"    {text}\n" for text in body)
        return self.define("run", label, source)


def _key_rows(sheet, row1, col1, row2, col2):
    return tuple(
        tuple((sheet, r, c) for c in range(col1, col2 + 1))
        for r in range(row1, row2 + 1)
    )


# The formula cells one evaluation computes, in topological order, and
# ``run(values)`` evaluating them and writing each to ``values``.
Plan = namedtuple("Plan", ["cells", "run"])


def evaluate_source(workbook: Workbook, source: str) -> CellValue:
    """One-shot parse and evaluate of a formula on the default sheet, against cached values."""
    ast = parse_formula(source)
    key = (workbook.default_sheet().upper(), 0, 0)
    emitter = _Emitter(workbook)
    emitter.cell(key, ast, write=False)
    return emitter.function("formula", observed=(key,))(workbook.values)[0]


# --- Dependency graph --------------------------------------------------------


class DependencyGraph:
    """Formula cells, their precedent edges, a topo order, and plans."""

    def __init__(self):
        # Formula keys, topological: the cells that read no formula cell,
        # in the definition's order, then each other cell once every
        # formula cell it reads is placed.
        self.order: list[tuple] = []
        self.dependents: dict[tuple, list[tuple]] = {}  # precedent key -> formula keys
        self.precedents: dict[tuple, set[tuple]] = {}  # formula key -> precedent keys
        self.block_reads: set[tuple] = set()  # keys some formula reads through a range
        self.topo_index: dict[tuple, int] = {}
        self.version = -1
        self._plans: dict[frozenset | None, Plan] = {}

    def plan(self, wb: Workbook, dirty: frozenset | None) -> Plan:
        """The compiled plan writing every formula cell downstream of
        ``dirty`` (None: every formula cell)."""
        cached = self._plans.get(dirty)
        if cached is not None:
            return cached
        plan = self.compile(wb, self.affected(dirty))
        if len(self._plans) < 64:
            self._plans[dirty] = plan
        return plan

    def affected(self, dirty: frozenset | None) -> set:
        """The formula cells downstream of the ``dirty`` keys (every one
        for ``dirty=None``)."""
        return set(self.order) if dirty is None else _closure(dirty, self.dependents)

    def upstream(self, observed) -> set:
        """The ``observed`` keys and every key they read, directly or not."""
        wanted = set(observed)
        return _closure(wanted, self.precedents) | wanted

    def compile(self, wb: Workbook, cells: set) -> Plan:
        """The formula ``cells`` as one plan, run in topological order,
        writing every cell."""
        cells, emitter, _, before = self.emit(wb, cells)
        return Plan(cells, emitter.function(f"plan cells {len(before) * _CHUNK}+", before))

    def emit(self, wb: Workbook, cells: set, observed=None, fields=(), carry=()):
        """The formula ``cells`` in topological order, the emitter of the
        last chunk of them (at most ``_CHUNK``), the ``fields`` a range
        reads and the functions that compute the chunks before it.

        Each ``carry`` key is a local of the emitter, whose value the
        caller sets, unless a range reads it, the cells span several
        chunks, or its value is an error now: the caller sets it only to
        values that are never errors.
        """
        if observed is None:
            writes = set(cells)
        else:
            writes = (set(observed) | self.block_reads) & cells
        cells = sorted(cells, key=self.topo_index.__getitem__)
        # One function per chunk of cells bounds the compiler's memory;
        # a cell a later chunk reads is handed over through ``values``.
        chunk_of = {key: i // _CHUNK for i, key in enumerate(cells)}
        last = max(len(cells) - 1, 0) // _CHUNK
        if observed is not None:  # the last chunk returns its observed values
            writes = {k for k in writes if k in self.block_reads or chunk_of[k] < last}
        writes |= {
            key for key in cells
            if any(chunk_of.get(d, -1) > chunk_of[key] for d in self.dependents.get(key, ()))
        }
        top = [key for key in fields if key in self.block_reads]
        carry = [] if last else [k for k in carry if k not in self.block_reads
                                 and wb.values.get(k).__class__ is not CellError]
        before = []
        for start in range(0, max(len(cells), 1), _CHUNK):
            emitter = _Emitter(wb, fields, carry)
            for key in cells[start : start + _CHUNK]:
                emitter.cell(key, wb._formulas[key], key in writes)
            if start // _CHUNK < last:
                before.append(emitter.function(f"plan cells {start}+"))
        return cells, emitter, top, before


def _closure(start, edges: dict) -> set:
    """Keys reachable from ``start`` along one or more ``edges``."""
    reached: set = set()
    stack = list(start)
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return reached


def _formula_dependencies(wb: Workbook, key: tuple, ast, block_reads: set) -> set[tuple]:
    """Precedent cell keys of one formula, ranges expanded to members;
    keys read through a range are also added to ``block_reads``."""
    sheet = key[0]
    deps: set[tuple] = set()
    for ref in extract_references(ast):
        cls = ref.__class__
        if cls is CellRef:
            deps.add((sheet, ref.row, ref.col))
        elif cls is RangeRef:
            s, e = ref.start, ref.end
            members = [k for row in _key_rows(sheet, s.row, s.col, e.row, e.col) for k in row]
            deps.update(members)
            block_reads.update(members)
        else:  # NameRef; one cell is read as a cell, more as a range
            if not wb.has_name(ref.name):
                raise UnknownNameError(
                    f"formula in {wb.cell_name(key)} "
                    f"references unknown name {ref.name!r}"
                )
            rng = wb.resolve_name(ref.name)
            deps.update(rng.keys())
            if rng.size() > 1:
                block_reads.update(rng.keys())
    return deps


def build_graph(wb: Workbook) -> DependencyGraph:
    """Derive the recalculation order and precedent edges.

    Rebuilt only when formulas or names change, never per record.
    """
    graph = DependencyGraph()
    formula_deps = graph.precedents
    for key, ast in wb._formulas.items():
        deps = formula_deps[key] = _formula_dependencies(wb, key, ast, graph.block_reads)
        for dep in deps:
            graph.dependents.setdefault(dep, []).append(key)

    # Kahn's algorithm over formula-to-formula edges; ``order`` is its queue.
    indegree = {key: sum(dep in formula_deps for dep in deps) for key, deps in formula_deps.items()}
    order = graph.order = [key for key, deg in indegree.items() if deg == 0]
    for key in order:
        for dependent in graph.dependents.get(key, ()):
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                order.append(dependent)
    if len(order) != len(formula_deps):
        # Every cell left over has a left-over precedent: walk them
        # until one repeats.
        remaining = {k for k, deg in indegree.items() if deg > 0}
        path: dict[tuple, int] = {}
        key = min(remaining)
        while key not in path:
            path[key] = len(path)
            key = min(d for d in formula_deps[key] if d in remaining)
        cycle = list(path)[path[key] :] + [key]
        raise CycleError([wb.cell_name(k) for k in cycle])

    graph.topo_index = {key: i for i, key in enumerate(order)}
    graph.version = wb.structure_version
    wb.graph = graph
    return graph


def inline_plan(wb: Workbook, observed, fields=(), carry=()):
    """The formula cells downstream of the ``fields`` and ``carry`` keys
    and upstream of the ``observed`` keys, as code for a function the
    caller writes around it. Returns ``(cells, lines, emitter)``: the
    cells, the plan's statements (see ``_Emitter.statements``), which take
    the ``fields``' texts from ``row``, and their emitter. It gives the
    code for each key's value (``operand``), says whether that can be an
    error, and compiles the caller's source with the names the statements
    use (``define``). One of them is ``values``: a copy of the workbook's
    values, into which the cells upstream of ``observed`` that neither
    feeds are evaluated here, so nothing the caller's function writes
    reaches the workbook. Its ``carry`` keys (see ``DependencyGraph.emit``)
    are locals the caller sets before the statements run; the other carry
    keys are read from ``values``.
    """
    graph = _current_graph(wb)
    observed, fields = tuple(observed), tuple(fields)
    upstream = graph.upstream(observed)
    fed = graph.affected(frozenset(fields).union(carry))
    constants = (upstream - fed) & graph.precedents.keys()
    values = dict(wb.values)
    if constants:
        graph.compile(wb, constants).run(values)
    cells, emitter, top, before = graph.emit(wb, fed & upstream, observed, fields, carry)
    emitter.values = values
    return cells, emitter.statements(top, before), emitter


def _current_graph(wb: Workbook) -> DependencyGraph:
    graph = wb.graph
    if graph is None or graph.version != wb.structure_version:
        graph = build_graph(wb)
    return graph


def recalculate(wb: Workbook, dirty=None) -> int:
    """Re-evaluate formula cells downstream of the dirty set.

    ``dirty`` is an iterable of CellAddress (or raw keys); None means a
    full recalculation. Every affected cell is evaluated exactly once,
    in topological order, and written back. Evaluation problems become
    error values in cells, never exceptions. Returns the number of cells
    evaluated.
    """
    graph = _current_graph(wb)
    if dirty is not None:
        dirty = frozenset(a.key() if isinstance(a, CellAddress) else a for a in dirty)
        if not dirty:
            return 0
    plan = graph.plan(wb, dirty)
    plan.run(wb.values)
    return len(plan.cells)
