"""A small textual front end for source programs.

The concrete syntax follows the paper's notation as closely as plain text
allows::

    program polyprod
    size n
    var a[0..n], b[0..n], c[0..2*n]
    for i = 0 <- 1 -> n
    for j = 0 <- 1 -> n
        c[i+j] := c[i+j] + a[i] * b[j]

* ``size`` declares the problem-size symbols.
* ``var`` declares indexed variables with inclusive affine bounds.
* ``for x = lb <- st -> rb`` declares one loop; ``st`` is ``1`` or ``-1``.
* The body is one or more statements: plain assignments
  ``v[subscripts] := expr`` or guarded ones ``if <cond> -> v[...] := expr``.

Every occurrence ``v[e_0, ..., e_{d-1}]`` of a variable must use the same
index vector (multiple-occurrence criteria of the paper's reference [2]);
the parser derives the stream's index map from it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Sequence

from repro import profiling
from repro.geometry.linalg import Matrix
from repro.lang.expr import (
    Assign,
    BinOp,
    Body,
    Branch,
    Condition,
    Const,
    Expr,
    StreamRead,
)
from repro.lang.program import Loop, SourceProgram
from repro.lang.stream import Stream
from repro.lang.variables import IndexedVariable
from repro.symbolic.affine import Affine
from repro.symbolic.minmax import Bound, bound_args, extremum
from repro.util.cache import BoundedLRU
from repro.util.errors import SourceProgramError

#: Parsed programs by source text.  A job that re-sends the same text (a
#: paper design, a service request, a corpus pin) parses it once and gets
#: the same frozen program back, so every cache keyed on that program --
#: its fingerprint, the derivation memo -- answers at once.  A text that
#: fails to parse inserts nothing and raises again on every call.
PARSED_PROGRAMS = BoundedLRU(256)
profiling.register("parsed_programs", PARSED_PROGRAMS.stats)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>:=|<-|->|\.\.|<=|>=|==|!=|[-+*/,\[\]()<>=])"
    r")"
)


def tokenize(text: str) -> list[str]:
    """Split a line into tokens; raises on garbage."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise SourceProgramError(f"cannot tokenize {rest!r}")
        tokens.append(m.group(m.lastgroup))  # type: ignore[arg-type]
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: Sequence[str], context: str) -> None:
        self.tokens = list(tokens)
        self.pos = 0
        self.context = context

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SourceProgramError(f"unexpected end of input in {self.context!r}")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.next()
        if tok != token:
            raise SourceProgramError(
                f"expected {token!r}, got {tok!r} in {self.context!r}"
            )

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


# ----------------------------------------------------------------------
# affine expression parsing (for bounds, subscripts, guards)
# ----------------------------------------------------------------------

def _parse_affine_atom(ts: _TokenStream) -> Affine:
    tok = ts.next()
    if tok == "(":
        e = _parse_affine_sum(ts)
        ts.expect(")")
        return e
    if tok == "-":
        return -_parse_affine_atom(ts)
    if tok.isdigit():
        value: Affine = Affine.constant(int(tok))
    elif tok.isidentifier():
        value = Affine.var(tok)
    else:
        raise SourceProgramError(f"unexpected token {tok!r} in affine expression")
    return value


def _parse_affine_term(ts: _TokenStream) -> Affine:
    left = _parse_affine_atom(ts)
    while ts.peek() in ("*", "/"):
        op = ts.next()
        right = _parse_affine_atom(ts)
        if op == "*":
            left = left * right  # Affine.__mul__ enforces affinity
        else:
            left = left / right
    return left


def _parse_affine_sum(ts: _TokenStream) -> Affine:
    left = _parse_affine_term(ts)
    while ts.peek() in ("+", "-"):
        op = ts.next()
        right = _parse_affine_term(ts)
        left = left + right if op == "+" else left - right
    return left


def parse_affine(text: str) -> Affine:
    """Parse an affine expression, e.g. ``"2*n - 1"``."""
    ts = _TokenStream(tokenize(text), text)
    e = _parse_affine_sum(ts)
    if not ts.at_end():
        raise SourceProgramError(f"trailing tokens in affine expression {text!r}")
    return e


def _parse_bound(ts: _TokenStream, expected_kind: str, what: str) -> Bound:
    """Parse a loop/variable bound: an affine sum or ``min``/``max`` form.

    ``expected_kind`` is ``"max"`` for lower bounds and ``"min"`` for
    upper bounds; the other kind is a :class:`SourceProgramError` (it
    would make the bound's membership test disjunctive, which the scheme
    does not admit).
    """
    tok = ts.peek()
    if tok in ("min", "max") and ts.tokens[ts.pos + 1 : ts.pos + 2] == ["("]:
        kind = ts.next()
        if kind != expected_kind:
            raise SourceProgramError(
                f"{what} may use {expected_kind}(...), not {kind}(...)"
            )
        ts.expect("(")
        args = [_parse_affine_sum(ts)]
        while ts.peek() == ",":
            ts.next()
            args.append(_parse_affine_sum(ts))
        ts.expect(")")
        if len(args) < 2:
            raise SourceProgramError(
                f"{what}: {kind}() needs at least two arguments"
            )
        return extremum(kind, args)
    return _parse_affine_sum(ts)


# ----------------------------------------------------------------------
# value expression parsing (basic-statement bodies)
# ----------------------------------------------------------------------

class _BodyParser:
    """Parses value expressions; records variable occurrences it sees."""

    def __init__(self, loop_indices: Sequence[str], variables: dict[str, IndexedVariable]):
        self.loop_indices = list(loop_indices)
        self.variables = variables
        #: name -> index map rows observed (must all agree)
        self.occurrences: dict[str, tuple[tuple[int, ...], ...]] = {}

    def _subscript_rows(self, name: str, subs: list[Affine]) -> tuple[tuple[int, ...], ...]:
        rows: list[tuple[int, ...]] = []
        for e in subs:
            extraneous = e.free_symbols.difference(self.loop_indices)
            if extraneous:
                raise SourceProgramError(
                    f"{name}: subscript {e} uses non-loop symbols {sorted(extraneous)}"
                )
            if e.const != 0:
                raise SourceProgramError(
                    f"{name}: subscript {e} contains a constant "
                    "(restricted by the scheme, Appendix A.2)"
                )
            row = []
            for idx in self.loop_indices:
                c = e.coeff(idx)
                if c.denominator != 1:
                    raise SourceProgramError(
                        f"{name}: subscript {e} has non-integer coefficient {c}"
                    )
                row.append(int(c))
            rows.append(tuple(row))
        return tuple(rows)

    def _record_occurrence(self, name: str, rows: tuple[tuple[int, ...], ...]) -> None:
        prior = self.occurrences.get(name)
        if prior is None:
            self.occurrences[name] = rows
        elif prior != rows:
            raise SourceProgramError(
                f"variable {name} is accessed with two different index vectors; "
                "all occurrences must agree"
            )

    def parse_ref(self, ts: _TokenStream, name: str) -> StreamRead:
        if name not in self.variables:
            raise SourceProgramError(f"undeclared variable {name!r}")
        ts.expect("[")
        subs = [_parse_affine_sum(ts)]
        while ts.peek() == ",":
            ts.next()
            subs.append(_parse_affine_sum(ts))
        ts.expect("]")
        if len(subs) != self.variables[name].dim:
            raise SourceProgramError(
                f"{name}: {len(subs)} subscripts for {self.variables[name].dim}-d variable"
            )
        self._record_occurrence(name, self._subscript_rows(name, subs))
        return StreamRead(name)

    def parse_atom(self, ts: _TokenStream) -> Expr:
        tok = ts.next()
        if tok == "(":
            e = self.parse_sum(ts)
            ts.expect(")")
            return e
        if tok == "-":
            return BinOp("-", Const(0), self.parse_atom(ts))
        if tok.isdigit():
            return Const(int(tok))
        if tok in ("min", "max"):
            ts.expect("(")
            left = self.parse_sum(ts)
            ts.expect(",")
            right = self.parse_sum(ts)
            ts.expect(")")
            return BinOp(tok, left, right)
        if tok.isidentifier():
            if ts.peek() == "[":
                return self.parse_ref(ts, tok)
            # loop index or size symbol used as a value
            from repro.lang.expr import IndexExpr

            return IndexExpr(Affine.var(tok))
        raise SourceProgramError(f"unexpected token {tok!r} in expression")

    def parse_term(self, ts: _TokenStream) -> Expr:
        left = self.parse_atom(ts)
        while ts.peek() == "*":
            ts.next()
            left = BinOp("*", left, self.parse_atom(ts))
        return left

    def parse_sum(self, ts: _TokenStream) -> Expr:
        left = self.parse_term(ts)
        while ts.peek() in ("+", "-"):
            op = ts.next()
            left = BinOp(op, left, self.parse_term(ts))
        return left

    def parse_condition(self, ts: _TokenStream) -> Condition:
        left = _parse_affine_sum(ts)
        rel = ts.next()
        if rel not in ("==", "!=", "<=", "<", ">=", ">"):
            raise SourceProgramError(f"bad relation {rel!r} in guard")
        right = _parse_affine_sum(ts)
        return Condition(left - right, rel)

    def parse_statement(self, ts: _TokenStream) -> Branch:
        condition: Condition | None = None
        if ts.peek() == "if":
            ts.next()
            condition = self.parse_condition(ts)
            ts.expect("->")
        name = ts.next()
        if not name.isidentifier():
            raise SourceProgramError(f"expected assignment target, got {name!r}")
        target = self.parse_ref(ts, name)
        ts.expect(":=")
        expr = self.parse_sum(ts)
        if not ts.at_end():
            raise SourceProgramError(f"trailing tokens after statement: {ts.tokens[ts.pos:]}")
        return Branch(condition, (Assign(target.name, expr),))


# ----------------------------------------------------------------------
# top-level program parsing
# ----------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


def _parse_var_decls(ts: _TokenStream) -> list[IndexedVariable]:
    out: list[IndexedVariable] = []
    while True:
        name = ts.next()
        if not name.isidentifier():
            raise SourceProgramError(f"bad variable name {name!r}")
        ts.expect("[")
        bounds: list[tuple[Bound, Bound]] = []
        while True:
            lo = _parse_bound(ts, "max", f"{name}: lower bound")
            ts.expect("..")
            hi = _parse_bound(ts, "min", f"{name}: upper bound")
            bounds.append((lo, hi))
            if ts.peek() == ",":
                ts.next()
                continue
            break
        ts.expect("]")
        out.append(IndexedVariable(name, tuple(bounds)))
        if ts.peek() == ",":
            ts.next()
            continue
        break
    if not ts.at_end():
        raise SourceProgramError("trailing tokens after var declaration")
    return out


def _parse_loop(
    ts: _TokenStream, sizes: Sequence[str], enclosing: Sequence[str]
) -> Loop:
    index = ts.next()
    if index in sizes:
        raise SourceProgramError(
            f"loop index {index!r} shadows a size symbol of the same name"
        )
    if index in enclosing:
        raise SourceProgramError(f"duplicate loop index {index!r}")
    ts.expect("=")
    lower = _parse_bound(ts, "max", f"loop {index}: left bound")
    ts.expect("<-")
    step_sign = 1
    if ts.peek() == "-":
        ts.next()
        step_sign = -1
    step_tok = ts.next()
    if step_tok != "1":
        raise SourceProgramError(f"loop step must be 1 or -1, got {step_tok!r}")
    ts.expect("->")
    upper = _parse_bound(ts, "min", f"loop {index}: right bound")
    if not ts.at_end():
        raise SourceProgramError("trailing tokens after loop header")
    indices = set(enclosing) | {index}
    for what, bound in (("left", lower), ("right", upper)):
        for piece in bound_args(bound):
            used = piece.free_symbols & indices
            if used:
                raise SourceProgramError(
                    f"loop {index}: {what} bound {bound} uses loop "
                    f"indices {sorted(used)}; bounds must be affine in the "
                    "size symbols only"
                )
    return Loop(index, lower, upper, step_sign)


def parse_program(text: str) -> SourceProgram:
    """Parse a complete source program from its textual form.

    A repeated text is answered from :data:`PARSED_PROGRAMS` with the same
    :class:`SourceProgram` object.  Anything but a ``str`` is refused with a
    :class:`SourceProgramError` before the cache is consulted.
    """
    if not isinstance(text, str):
        raise SourceProgramError(
            f"source text must be a str, got {type(text).__name__}"
        )
    return PARSED_PROGRAMS.get_or_build(text, lambda: _parse(text))


def _parse(text: str) -> SourceProgram:
    name = "program"
    sizes: list[str] = []
    variables: dict[str, IndexedVariable] = {}
    loops: list[Loop] = []
    branches: list[Branch] = []
    body_parser: _BodyParser | None = None

    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        tokens = tokenize(line)
        ts = _TokenStream(tokens, line)
        head = tokens[0]
        if head == "program":
            ts.next()
            name = ts.next()
        elif head == "size":
            ts.next()
            while not ts.at_end():
                sym = ts.next()
                if not sym.isidentifier():
                    raise SourceProgramError(f"bad size symbol {sym!r}")
                if sym in sizes:
                    raise SourceProgramError(f"duplicate size declaration {sym!r}")
                sizes.append(sym)
                if ts.peek() == ",":
                    ts.next()
        elif head == "var":
            ts.next()
            for v in _parse_var_decls(ts):
                if v.name in variables:
                    raise SourceProgramError(f"duplicate variable {v.name}")
                variables[v.name] = v
        elif head == "for":
            if branches:
                raise SourceProgramError("loop header after body statements")
            ts.next()
            loops.append(_parse_loop(ts, sizes, [lp.index for lp in loops]))
        else:
            if not loops:
                raise SourceProgramError(f"statement before any loop: {line!r}")
            if body_parser is None:
                body_parser = _BodyParser([lp.index for lp in loops], variables)
            branches.append(body_parser.parse_statement(ts))

    if not loops:
        raise SourceProgramError("program has no loops")
    if body_parser is None or not branches:
        raise SourceProgramError("program has no basic statement")

    # Streams are listed in *declaration* order (the paper's a, b, c ...).
    streams: list[Stream] = []
    for var_name, variable in variables.items():
        rows = body_parser.occurrences.get(var_name)
        if rows is None:
            raise SourceProgramError(f"declared but unused variable: {var_name}")
        streams.append(Stream(variable, Matrix(rows)))

    return SourceProgram(
        loops=tuple(loops),
        streams=tuple(streams),
        body=Body(tuple(branches)),
        size_symbols=tuple(sizes),
        name=name,
    )
