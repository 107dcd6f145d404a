"""Exact verification toolkit for matching-space injections of small graphs.

The package init holds only the version and `InternalError`, so that each
command compiles only its own modules (`cli.COMMANDS` names them):
`equimatch --version` and `equimatch boolean` nothing of the graph side,
and `verify` nothing of the Boolean suite.  Import the modules themselves
(`equimatch.graph`, `equimatch.phimap`, ...) for the library.
"""

__version__ = "0.1.0"


class InternalError(RuntimeError):
    """A library invariant failed: a fault in equimatch, not in its input."""
