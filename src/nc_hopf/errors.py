"""Exception types shared across the package."""


class NcHopfError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(NcHopfError):
    """Malformed text or JSON encoding."""


class SizeLimitError(NcHopfError):
    """An enumeration was requested beyond the configured size cap."""


class CarrierMismatchError(NcHopfError):
    """Two partitions live on different carriers."""


class OrderError(NcHopfError):
    """A lattice interval [L, K] was requested with L not below K."""


class TruncationError(NcHopfError):
    """A linear functional was evaluated above its truncation degree."""


class AlgebraMismatchError(NcHopfError):
    """Functionals over different algebras or truncations were combined."""


class InconsistencyError(NcHopfError):
    """Two supposedly equivalent computation routes disagreed.

    This always indicates an implementation bug, never bad user input.
    """


# never bad input: cli.main and verify all report these as faults of the tool
INTERNAL_FAULTS = (InconsistencyError, AlgebraMismatchError, TruncationError,
                   KeyError, ValueError)
