"""lexpress error types."""

from __future__ import annotations


class LexpressError(Exception):
    """Base class for all lexpress failures."""


class LexpressSyntaxError(LexpressError):
    """Lexing or parsing failed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LexpressCompileError(LexpressError):
    """Semantic analysis or code generation failed."""


class LexpressRuntimeError(LexpressError):
    """Bytecode execution failed."""


class FixpointError(LexpressRuntimeError):
    """A cyclic dependency failed to reach a fixpoint at execution time
    (the enhancement discussed at the end of paper section 4.2)."""


class CyclicDependencyError(LexpressCompileError):
    """Compile-time detection of a dependency cycle that can never reach a
    fixpoint (the other half of the same enhancement)."""
