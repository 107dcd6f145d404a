"""Exact verification toolkit for matching-space injections of small graphs.

The package init holds only the version and `InternalError`, so that
`equimatch --version` and `equimatch boolean` compile nothing of the graph
side; import the modules themselves (`equimatch.graph`, `equimatch.phimap`,
...) for the library.
"""

__version__ = "0.1.0"


class InternalError(RuntimeError):
    """A library invariant failed: a fault in equimatch, not in its input."""
