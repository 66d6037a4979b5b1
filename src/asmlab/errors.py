"""Shared exception types.

Parameter/validation problems raise plain ValueError (exit code 2 at the
CLI); everything here is a runtime domain failure (exit code 1), including
:class:`ConfigError`, which is also a ValueError so that library callers
catching ValueError around ``read_config`` keep working.
"""

from __future__ import annotations


class AssemblyError(Exception):
    """Base class for domain failures (bad graph shape, exceeded caps, bad input data)."""


class ResourceLimitError(AssemblyError):
    """An instance exceeds a documented solver cap."""

    def __init__(self, message: str, limit: int):
        super().__init__(message)
        self.limit = limit


class DisconnectedGraphError(AssemblyError):
    """Raised when a single covering walk cannot exist because the graph has
    several weakly-connected components. Carries the per-component subgraphs
    so callers can solve each one independently."""

    def __init__(self, components):
        super().__init__(
            f"graph has {len(components)} weakly-connected components; "
            "no single edge-covering walk exists (solve per component)"
        )
        self.components = list(components)


class NoCoveringWalkError(AssemblyError):
    """The graph is weakly connected but its imbalance pattern admits no
    edge-covering walk (some required duplication path does not exist)."""


class FastaParseError(AssemblyError):
    """Malformed input file (FASTA/FASTQ reads, graph edge list, run
    configuration or any other data file); carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(AssemblyError, ValueError):
    """A run configuration file holds a malformed line, an unknown key or a
    bad value; the message names the file (when known) and the line."""
