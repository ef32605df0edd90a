"""The lexpress byte-code interpreter.

Executes a :class:`~repro.lexpress.bytecode.CodeObject` against a source
record (a mapping from attribute name to list of string values).  The
compiler and interpreter together form the "subroutine library that can be
called from any program" of paper section 4.2.

This module is the reference semantics: the closure compiler
(:mod:`repro.lexpress.codegen`) must produce byte-for-byte identical
values, and the test suite's verify fixture runs both engines on every
evaluation and asserts it.  The interpreter also runs any rule whose
code the verifier gate rejected.  Its hot path stays lean — frames come from a
per-thread pool instead of being allocated per call, attribute-name
lowering is hoisted to :meth:`CodeObject.attr_keys`, and callers that
already hold a canonical (lower-keyed) record pass ``canonical=True`` to
skip re-lowering entirely.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence

from ..obs.metrics import global_registry
from .bytecode import CodeObject, Op
from .errors import LexpressRuntimeError
from .functions import lookup

Value = Any  # None | str | bool | list[str]

#: Executed-instruction counter.  The interpreter is module-level code with
#: no instance to hang a per-system registry on, so it reports into the
#: process-wide registry; the count is accumulated locally per run and
#: flushed once, keeping the dispatch loop branch-free.
_INSTRUCTIONS = global_registry().counter(
    "lexpress_instructions_total",
    "Byte-code instructions executed by the lexpress interpreter",
)


def truthy(value: Value) -> bool:
    """Boolean coercion: null and empty values are false."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (str, list)):
        return bool(value)
    return bool(value)


class _Frame:
    __slots__ = ("attrs", "groups", "value")

    def __init__(self):
        self.attrs: Mapping[str, Sequence[str]] = {}
        self.groups: list[str | None] = []
        self.value: Value = None


#: Per-thread frame pool: `execute` is called once per rule evaluation on
#: the Update Manager hot path; reusing frames avoids one allocation plus
#: slot initialization per call.
_LOCAL = threading.local()
_POOL_LIMIT = 16


def _acquire() -> _Frame:
    pool = getattr(_LOCAL, "frames", None)
    if pool:
        return pool.pop()
    return _Frame()


def _release(frame: _Frame) -> None:
    pool = getattr(_LOCAL, "frames", None)
    if pool is None:
        pool = _LOCAL.frames = []
    if len(pool) < _POOL_LIMIT:
        frame.attrs = {}
        frame.value = None
        pool.append(frame)


def lower_attrs(
    attrs: Mapping[str, Sequence[str]],
) -> dict[str, Sequence[str]]:
    """Canonical execution view of a record: lower-cased attribute keys.

    Values are shared, not copied — the interpreter and compiled closures
    only ever read them (and coerce elements with ``str`` on load)."""
    return {k.lower(): v for k, v in attrs.items()}


def execute(
    code: CodeObject,
    attrs: Mapping[str, Sequence[str]],
    value: Value = None,
    *,
    canonical: bool = False,
) -> Value:
    """Run *code* against the source record *attrs* and return its value.

    ``canonical=True`` promises that *attrs* already has lower-cased keys
    (e.g. from :func:`lower_attrs`), skipping the per-call re-keying —
    the big win for callers that evaluate many rules against one record.
    """
    frame = _acquire()
    frame.attrs = attrs if canonical else lower_attrs(attrs)
    frame.groups = []
    frame.value = value
    try:
        return _run(code, frame)
    finally:
        _release(frame)


def _run(code: CodeObject, frame: _Frame) -> Value:
    stack: list[Value] = []
    pc = 0
    executed = 0
    instructions = code.instructions
    consts = code.consts
    attr_keys = code.attr_keys()
    try:
        while pc < len(instructions):
            ins = instructions[pc]
            op = ins.op
            pc += 1
            executed += 1
            if op is Op.PUSH:
                stack.append(consts[ins.arg])
            elif op is Op.LOAD_ATTR:
                values = frame.attrs.get(attr_keys[ins.arg], ())
                stack.append(str(values[0]) if values else None)
            elif op is Op.LOAD_ALL:
                values = frame.attrs.get(attr_keys[ins.arg], ())
                stack.append([str(v) for v in values])
            elif op is Op.LOAD_GROUP:
                index = ins.arg
                if index < len(frame.groups):
                    stack.append(frame.groups[index])
                else:
                    stack.append(None)
            elif op is Op.LOAD_VALUE:
                stack.append(frame.value)
            elif op is Op.CALL:
                name_idx, argc = ins.arg
                fn = lookup(consts[name_idx])
                if argc:
                    args = stack[-argc:]
                    del stack[-argc:]
                else:
                    args = []
                try:
                    stack.append(fn(*args))
                except TypeError as exc:
                    raise LexpressRuntimeError(
                        f"{consts[name_idx]}: {exc}"
                    ) from None
            elif op is Op.MATCH_RE:
                subject = stack.pop()
                if subject is None:
                    stack.append(False)
                    continue
                match = consts[ins.arg].search(str(subject))
                if match:
                    frame.groups = [match.group(0), *match.groups()]
                    stack.append(True)
                else:
                    stack.append(False)
            elif op is Op.MATCH_LIT:
                subject = stack.pop()
                literal = consts[ins.arg]
                matched = subject is not None and str(subject) == literal
                if matched:
                    frame.groups = [str(subject)]
                stack.append(matched)
            elif op is Op.TABLE_CONST:
                subject = stack.pop()
                table, default = consts[ins.arg]
                if subject is None:
                    stack.append(default)
                else:
                    text = str(subject)
                    if text in table:
                        frame.groups = [text]
                        stack.append(table[text])
                    else:
                        stack.append(default)
            elif op is Op.EACH_APPLY:
                body: CodeObject = consts[ins.arg]
                values = stack.pop()
                if values is None:
                    values = []
                if not isinstance(values, list):
                    values = [values]
                results: list[str] = []
                sub = _acquire()
                sub.attrs = frame.attrs  # share, no copy needed
                try:
                    for element in values:
                        sub.groups = []
                        sub.value = str(element)
                        result = _run(body, sub)
                        if result is None:
                            continue
                        if isinstance(result, list):
                            results.extend(str(r) for r in result)
                        elif isinstance(result, bool):
                            results.append("true" if result else "false")
                        else:
                            results.append(str(result))
                finally:
                    _release(sub)
                stack.append(results)
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.POP:
                stack.pop()
            elif op is Op.IS_NULL:
                stack.append(stack.pop() is None)
            elif op is Op.EQ:
                right, left = stack.pop(), stack.pop()
                stack.append(_equal(left, right))
            elif op is Op.NEQ:
                right, left = stack.pop(), stack.pop()
                stack.append(not _equal(left, right))
            elif op is Op.NOT:
                stack.append(not truthy(stack.pop()))
            elif op is Op.JUMP:
                pc = ins.arg
            elif op is Op.JUMP_IF_FALSE:
                if not truthy(stack.pop()):
                    pc = ins.arg
            elif op is Op.JUMP_IF_TRUE:
                if truthy(stack.pop()):
                    pc = ins.arg
            elif op is Op.RETURN:
                return stack.pop() if stack else None
            else:  # pragma: no cover - opcode set is closed
                raise LexpressRuntimeError(f"bad opcode {op}")
    finally:
        if executed:
            _INSTRUCTIONS.inc(executed)
    raise LexpressRuntimeError(f"code {code.name!r} fell off the end")


def _equal(left: Value, right: Value) -> bool:
    if left is None or right is None:
        return left is right
    if isinstance(left, list) or isinstance(right, list):
        left_list = left if isinstance(left, list) else [left]
        right_list = right if isinstance(right, list) else [right]
        return [str(v) for v in left_list] == [str(v) for v in right_list]
    return str(left) == str(right)
