"""Fuzz tests: randomly generated lexpress programs must compile and
execute without crashing the toolchain (errors are fine, crashes are not),
and deterministic expressions must be referentially transparent."""

import hypothesis.strategies as st
from hypothesis import given, settings

import pytest

from repro.lexpress import (
    LexpressError,
    TokenType,
    compile_closure,
    compile_expr,
    execute,
    lower_attrs,
    tokenize,
)
from repro.lexpress.codegen import _CFrame
from repro.lexpress.parser import Parser

ATTRS = ["Name", "Extension", "Room", "COS"]
IDENT = st.sampled_from(ATTRS)
STRING = st.text(alphabet="abc 0-9,", max_size=8).map(
    lambda s: '"' + s.replace('"', "") + '"'
)

# Grammar-directed expression source generator.
expr_source = st.deferred(
    lambda: st.one_of(
        STRING,
        IDENT,
        st.sampled_from(["null", "true", "false", "1234"]),
        st.tuples(st.sampled_from(["upper", "lower", "trim", "digits"]), expr_source).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(expr_source, expr_source).map(
            lambda t: f"concat({t[0]}, {t[1]})"
        ),
        st.tuples(expr_source, expr_source).map(lambda t: f"alt({t[0]}, {t[1]})"),
        st.tuples(IDENT, STRING).map(lambda t: f"prefix({t[0]}, {t[1]})"),
        st.tuples(IDENT, expr_source, expr_source).map(
            lambda t: "match " + t[0] + " { /^a/ => " + t[1] + "; _ => " + t[2] + "; }"
        ),
        st.tuples(IDENT, STRING, expr_source).map(
            lambda t: "table " + t[0] + " { " + t[1] + " => " + t[2] + "; }"
        ),
        st.tuples(IDENT, expr_source).map(
            lambda t: f"each {t[0]} => concat(value, {t[1]})"
        ),
        st.tuples(expr_source, expr_source).map(lambda t: f"({t[0]} == {t[1]})"),
    )
)

record = st.fixed_dictionaries(
    {},
    optional={
        name: st.lists(st.text(alphabet="abc4 ", max_size=6), max_size=3)
        for name in ATTRS
    },
)


def _compile(source: str):
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    assert parser.peek().type is TokenType.EOF
    return compile_expr(expr, source)


@given(source=expr_source, attrs=record)
@settings(max_examples=200, deadline=None)
def test_random_programs_never_crash(source, attrs):
    try:
        code = _compile(source)
    except LexpressError:
        return  # rejected inputs are fine; crashes are not
    try:
        result = execute(code, attrs)
    except LexpressError:
        return
    assert result is None or isinstance(result, (str, bool, list))
    if isinstance(result, list):
        assert all(isinstance(v, str) for v in result)


@given(source=expr_source, attrs=record)
@settings(max_examples=100, deadline=None)
def test_execution_is_deterministic(source, attrs):
    try:
        code = _compile(source)
        first = execute(code, attrs)
        second = execute(code, attrs)
    except LexpressError:
        return
    assert first == second


@given(source=expr_source, attrs=record)
@settings(max_examples=200, deadline=None)
def test_compiled_closures_match_the_interpreter(source, attrs):
    """The differential property behind the verify_mode fixture: for any
    program, the synthesized closure and the interpreter must agree on
    the value *and its type* — or fail with the same error family."""
    try:
        code = _compile(source)
    except LexpressError:
        return
    closure = compile_closure(code)
    low = lower_attrs(attrs)
    frame = _CFrame()
    try:
        interpreted = execute(code, low, canonical=True)
    except LexpressError:
        with pytest.raises(LexpressError):
            closure.fn(low, frame)
        return
    compiled = closure.fn(low, frame)
    assert compiled == interpreted
    assert type(compiled) is type(interpreted)


@given(source=expr_source)
@settings(max_examples=100, deadline=None)
def test_compilation_is_pure(source):
    """Compiling twice yields equivalent code objects."""
    try:
        first = _compile(source)
        second = _compile(source)
    except LexpressError:
        return
    assert [str(i) for i in first.instructions] == [
        str(i) for i in second.instructions
    ]
    assert first.deps == second.deps
