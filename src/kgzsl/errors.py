"""Exception hierarchy shared across the package.

Two broad families matter for callers: errors caused by bad inputs
(config files, data files, unknown ids) and errors caused by broken
internal contracts (shape mismatches, violated invariants).  The CLI
maps the first family to exit code 1 and the second to exit code 2.
"""


class KgzslError(Exception):
    """Base class for every error raised by this package."""


class ParseError(KgzslError):
    """A text artifact (TSV graph, embedding file, JSON config) is malformed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(KgzslError):
    """A configuration value is missing, inconsistent or out of range."""


class DataError(KgzslError):
    """A data record is structurally valid but unusable (e.g. unknown label)."""


class UnknownNodeError(KgzslError):
    """A node id was requested that the graph does not contain."""

    def __init__(self, node):
        super().__init__(f"unknown node: {node!r}")
        self.node = node


class UnknownRelationError(KgzslError):
    """A relation id was used that the layer / graph does not know."""

    def __init__(self, relation):
        super().__init__(f"unknown relation: {relation!r}")
        self.relation = relation


class EmptyNameError(KgzslError):
    """A node id produced zero tokens, so no feature vector can be built."""

    def __init__(self, node):
        super().__init__(f"node id {node!r} yields no tokens")
        self.node = node


class DivergenceError(KgzslError):
    """A training loss became NaN or infinite; the message names the epoch and split."""


class ShapeError(KgzslError):
    """Operands of a tensor op have incompatible shapes.

    The message always names the op and the offending shapes so a failing
    forward pass can be located without a debugger.
    """


class ContractError(KgzslError):
    """An internal precondition or invariant was violated by the caller."""
