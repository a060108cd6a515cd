"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package-level failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An initial configuration is malformed for the chosen protocol.

    Examples: wrong population size, a state that does not belong to the
    protocol's state space, or a field outside its declared range.
    """


class ProtocolDefinitionError(ReproError):
    """A protocol definition is internally inconsistent.

    Examples: a population size too small for the protocol, or parameter
    values outside their documented ranges.
    """


class NotSilentError(ReproError):
    """A silence-related query was made against a non-silent protocol.

    Silence detection requires the protocol to implement the analytic
    null-pair predicate :meth:`PopulationProtocol.is_pair_null`; protocols
    that are not silent (e.g. Sublinear-Time-SSR with H >= 1) raise this
    instead of pretending to answer.
    """
