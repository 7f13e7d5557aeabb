"""Common exception hierarchy for the repro infrastructure.

Every layer (front-end, bytecode, VM, analysis, partitioner, runtime) raises a
subclass of :class:`ReproError` so callers can catch infrastructure failures
without masking genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro infrastructure."""


class SourcePosition:
    """A (line, column) position inside an MJ source file."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        self.line = line
        self.col = col

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{self.line}:{self.col}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourcePosition)
            and other.line == self.line
            and other.col == self.col
        )

    def __hash__(self) -> int:
        return hash((self.line, self.col))


#: what the parser, the type checker and the compiler report, with a
#: position, when an expression outgrows the interpreter's recursion budget
#: (parentheses, unary operators, chained assignments; operator chains like
#: ``a + b + c + ...`` are walked in a loop and have no such limit)
NESTED_TOO_DEEPLY = "expression nested too deeply"


class LexerError(ReproError):
    """Raised on malformed input characters or literals."""

    def __init__(self, message: str, pos: SourcePosition) -> None:
        super().__init__(f"lex error at {pos}: {message}")
        self.pos = pos


class ParseError(ReproError):
    """Raised when the token stream does not match the MJ grammar."""

    def __init__(self, message: str, pos: SourcePosition) -> None:
        super().__init__(f"parse error at {pos}: {message}")
        self.pos = pos


class SemanticError(ReproError):
    """Raised by the type checker / resolver."""

    def __init__(self, message: str, pos: SourcePosition | None = None) -> None:
        where = f" at {pos}" if pos is not None else ""
        super().__init__(f"semantic error{where}: {message}")
        self.pos = pos


class CompileError(ReproError):
    """Raised by the bytecode compiler for unsupported constructs."""


class VMError(ReproError):
    """Raised by the interpreter for runtime faults (the MJ analogue of
    JVM exceptions: null dereference, bad cast, index out of bounds...)."""


class PartitionError(ReproError):
    """Raised by the graph partitioner for invalid inputs."""


class UnknownPluginError(ReproError, KeyError):
    """An unknown name was looked up in a plugin :class:`~repro.api.registry.Registry`.

    One failure mode for every pluggable axis — partitioners, runtime
    backends, workloads, network presets — with the available names and a
    did-you-mean suggestion attached.  Subclasses :class:`KeyError` so
    mapping-style consumers (``WORKLOADS[name]``) keep their contract.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        available: "list[str]",
        suggestion: "str | None" = None,
    ) -> None:
        message = f"unknown {kind} {name!r}; available: {', '.join(available)}"
        if suggestion:
            message += f" (did you mean {suggestion!r}?)"
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.available = list(available)
        self.suggestion = suggestion

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes the message; show it verbatim instead
        return self.args[0]


class ConfigError(ReproError):
    """Raised by the typed experiment configs for invalid field values."""


class ExperimentError(ReproError):
    """Raised by the Experiment API for failed runs (e.g. a distributed
    execution whose output diverges from the centralized baseline)."""


class AnalysisError(ReproError):
    """Raised by the static analysis framework."""


class RuntimeServiceError(ReproError):
    """Raised by the distributed runtime services."""


class CodegenError(ReproError):
    """Raised by the BURS code generator."""
