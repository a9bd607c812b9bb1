"""Tests for the source-language parser, program model and variables."""

import pytest

from repro.geometry import Matrix, Point
from repro.lang import parse_affine, parse_program
from repro.lang import parser
from repro.lang.program import Loop
from repro.lang.variables import IndexedVariable
from repro.symbolic import Affine
from repro.util.errors import RequirementViolation, SourceProgramError

POLYPROD = """
program polyprod
size n
var a[0..n], b[0..n], c[0..2*n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
    c[i+j] := c[i+j] + a[i] * b[j]
"""

MATMUL = """
program matmul
size n
var a[0..n, 0..n], b[0..n, 0..n], c[0..n, 0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
for k = 0 <- 1 -> n
    c[i,j] := c[i,j] + a[i,k] * b[k,j]
"""


class TestParseAffine:
    def test_basic(self):
        assert parse_affine("2*n - 1") == 2 * Affine.var("n") - 1

    def test_parens(self):
        assert parse_affine("2*(n+1)") == 2 * Affine.var("n") + 2

    def test_unary_minus(self):
        assert parse_affine("-n + 3") == 3 - Affine.var("n")

    def test_division(self):
        from fractions import Fraction

        assert parse_affine("n/2").coeff("n") == Fraction(1, 2)

    def test_trailing_garbage(self):
        with pytest.raises(SourceProgramError):
            parse_affine("n n")

    def test_nonaffine_rejected(self):
        with pytest.raises(Exception):
            parse_affine("n*m")


class TestParsePolyprod:
    def test_shape(self):
        p = parse_program(POLYPROD)
        assert p.name == "polyprod"
        assert p.r == 2
        assert p.indices == ("i", "j")
        assert p.size_symbols == ("n",)

    def test_streams(self):
        p = parse_program(POLYPROD)
        maps = {s.name: s.index_map for s in p.streams}
        assert maps["a"] == Matrix([[1, 0]])
        assert maps["b"] == Matrix([[0, 1]])
        assert maps["c"] == Matrix([[1, 1]])

    def test_variable_bounds(self):
        p = parse_program(POLYPROD)
        c = p.stream("c").variable
        assert c.bounds[0][0] == Affine.constant(0)
        assert c.bounds[0][1] == 2 * Affine.var("n")

    def test_null_directions(self):
        p = parse_program(POLYPROD)
        assert p.stream("a").null_direction() in (Point.of(0, 1), Point.of(0, -1))
        assert p.stream("c").null_direction() in (Point.of(1, -1), Point.of(-1, 1))

    def test_index_space(self):
        p = parse_program(POLYPROD)
        space = p.index_space({"n": 2})
        assert space.lo == Point.of(0, 0) and space.hi == Point.of(2, 2)

    def test_body(self):
        p = parse_program(POLYPROD)
        assert p.body.streams_written() == {"c"}
        assert p.body.streams_read() == {"a", "b", "c"}


class TestParseMatmul:
    def test_streams(self):
        p = parse_program(MATMUL)
        maps = {s.name: s.index_map for s in p.streams}
        assert maps["a"] == Matrix([[1, 0, 0], [0, 0, 1]])  # (i, k)
        assert maps["b"] == Matrix([[0, 0, 1], [0, 1, 0]])  # (k, j)
        assert maps["c"] == Matrix([[1, 0, 0], [0, 1, 0]])  # (i, j)

    def test_null_directions(self):
        p = parse_program(MATMUL)
        assert p.stream("a").null_direction() == Point.of(0, 1, 0)
        assert p.stream("b").null_direction() == Point.of(1, 0, 0)
        assert p.stream("c").null_direction() == Point.of(0, 0, 1)


class TestParserErrors:
    def test_no_loops(self):
        with pytest.raises(SourceProgramError):
            parse_program("size n\nvar a[0..n]")

    def test_no_body(self):
        with pytest.raises(SourceProgramError):
            parse_program("var a[0..n]\nfor i = 0 <- 1 -> n")

    def test_undeclared_variable(self):
        with pytest.raises(SourceProgramError):
            parse_program("for i = 0 <- 1 -> 5\nfor j = 0 <- 1 -> 5\n  q[i] := q[i]")

    def test_inconsistent_occurrences(self):
        bad = """
var a[0..5], b[0..5]
for i = 0 <- 1 -> 5
for j = 0 <- 1 -> 5
  a[i] := a[j] + b[j]
"""
        with pytest.raises(SourceProgramError):
            parse_program(bad)

    def test_constant_subscript_rejected(self):
        bad = """
var a[0..5], b[0..5]
for i = 0 <- 1 -> 5
for j = 0 <- 1 -> 5
  a[i+1] := a[i+1] + b[j]
"""
        with pytest.raises(SourceProgramError):
            parse_program(bad)

    def test_size_symbol_in_subscript_rejected(self):
        bad = """
size n
var a[0..n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  a[i+n] := a[i+n] + b[j]
"""
        with pytest.raises(SourceProgramError):
            parse_program(bad)

    def test_subscript_arity_mismatch(self):
        bad = """
var a[0..5, 0..5], b[0..5]
for i = 0 <- 1 -> 5
for j = 0 <- 1 -> 5
  a[i] := a[i] + b[j]
"""
        with pytest.raises(SourceProgramError):
            parse_program(bad)

    def test_duplicate_variable(self):
        with pytest.raises(SourceProgramError):
            parse_program("var a[0..1], a[0..1]\nfor i = 0 <- 1 -> 1\nfor j = 0 <- 1 -> 1\n  a[i] := a[i]")

    def test_unused_variable(self):
        bad = """
var a[0..5], b[0..5]
for i = 0 <- 1 -> 5
for j = 0 <- 1 -> 5
  a[i] := a[i]
"""
        with pytest.raises(SourceProgramError):
            parse_program(bad)

    def test_loop_index_shadowing_size_symbol(self):
        bad = """
size n
var a[0..n], c[0..n]
for n = 0 <- 1 -> 5
for j = 0 <- 1 -> n
  c[n] := a[j]
"""
        with pytest.raises(SourceProgramError, match="shadow"):
            parse_program(bad)

    def test_duplicate_size_declaration(self):
        bad = """
size n
size n
var a[0..n], c[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  c[i] := a[j]
"""
        with pytest.raises(SourceProgramError, match="duplicate"):
            parse_program(bad)

    def test_duplicate_loop_index(self):
        bad = """
size n
var a[0..n], c[0..n]
for i = 0 <- 1 -> n
for i = 0 <- 1 -> n
  c[i] := a[i]
"""
        with pytest.raises(SourceProgramError, match="duplicate"):
            parse_program(bad)

    def test_loop_bound_using_loop_index(self):
        bad = """
size n
var a[0..n], c[0..n]
for i = 0 <- 1 -> n
for j = i <- 1 -> n
  c[i] := a[j]
"""
        with pytest.raises(SourceProgramError, match="loop ind"):
            parse_program(bad)

    def test_comment_and_blank_lines(self):
        text = POLYPROD.replace("size n", "size n  # problem size")
        assert parse_program(text).size_symbols == ("n",)


class TestExtremumBounds:
    def test_min_max_bounds_parse_and_round_trip(self):
        src = """program clipped
size m, n
var a[max(0, m - n)..min(m, n)], c[max(0, m - n)..min(m, n)]
for i = max(0, m - n) <- 1 -> min(m, n)
for j = 0 <- 1 -> n
  c[i] := a[i] + c[i]
"""
        p = parse_program(src)
        again = parse_program(p.to_source())
        assert again.to_source() == p.to_source()
        lo, hi = p.loops[0].lower, p.loops[0].upper
        assert str(lo) == "max(0, m - n)"
        assert str(hi) == "min(m, n)"
        assert lo.evaluate_int({"m": 5, "n": 3}) == 2
        assert hi.evaluate_int({"m": 5, "n": 3}) == 3

    def test_min_as_lower_bound_rejected(self):
        bad = """
size m, n
var a[0..n], c[0..n]
for i = min(m, n) <- 1 -> n
for j = 0 <- 1 -> n
  c[i] := a[j]
"""
        with pytest.raises(SourceProgramError, match="max"):
            parse_program(bad)

    def test_max_as_upper_bound_rejected(self):
        bad = """
size m, n
var a[0..n], c[0..n]
for i = 0 <- 1 -> max(m, n)
for j = 0 <- 1 -> n
  c[i] := a[j]
"""
        with pytest.raises(SourceProgramError, match="min"):
            parse_program(bad)

    def test_extremum_bound_mixing_loop_index_rejected(self):
        bad = """
size m, n
var a[0..n], c[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> min(n, i + 2)
  c[i] := a[j]
"""
        with pytest.raises(SourceProgramError, match="loop ind"):
            parse_program(bad)


class TestParseCache:
    def test_a_repeated_text_returns_the_same_program(self):
        assert parse_program(POLYPROD) is parse_program(POLYPROD)

    def test_a_failing_text_raises_every_time_and_inserts_nothing(self):
        size = len(parser.PARSED_PROGRAMS)
        for _ in range(2):
            with pytest.raises(SourceProgramError, match="no loops"):
                parse_program("program empty\nsize n\n")
        assert len(parser.PARSED_PROGRAMS) == size

    @pytest.mark.parametrize("text", [None, ["for i = 0 <- 1 -> n"], 3, POLYPROD.encode()])
    def test_a_non_str_is_refused(self, text):
        with pytest.raises(SourceProgramError, match="source text must be a str"):
            parse_program(text)


class TestLoop:
    def test_negative_step_iteration(self):
        lp = Loop.of("i", 0, Affine.var("n"), step=-1)
        assert list(lp.iteration_values({"n": 3})) == [3, 2, 1, 0]

    def test_positive_step_iteration(self):
        lp = Loop.of("i", 1, 4)
        assert list(lp.iteration_values({})) == [1, 2, 3, 4]

    def test_bad_step(self):
        with pytest.raises(RequirementViolation):
            Loop.of("i", 0, 5, step=2)

    def test_empty_range_rejected(self):
        with pytest.raises(SourceProgramError):
            Loop.of("i", 5, Affine.var("n")).iteration_values({"n": 2})

    def test_parse_negative_step(self):
        text = """
var a[0..5], b[0..5]
for i = 0 <- 1 -> 5
for j = 0 <- -1 -> 5
  a[i] := a[i] + b[j]
"""
        p = parse_program(text)
        assert p.loops[1].step == -1


class TestIndexedVariable:
    def test_space(self):
        v = IndexedVariable.of("a", (0, Affine.var("n")))
        space = v.space({"n": 4})
        assert space.size == 5

    def test_bad_name(self):
        with pytest.raises(SourceProgramError):
            IndexedVariable.of("9x", (0, 1))

    def test_size_symbols(self):
        v = IndexedVariable.of("a", (0, Affine.var("n")), (Affine.var("m"), 9))
        assert v.size_symbols == {"n", "m"}

    def test_str(self):
        assert "a[0..n]" in str(IndexedVariable.of("a", (0, Affine.var("n"))))
