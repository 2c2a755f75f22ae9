"""Exception types raised by the library."""


class PsdConeError(Exception):
    """Base class for all library errors."""


class AsymmetricInput(PsdConeError):
    """Matrix ingest rejected: asymmetry exceeds the relative threshold."""


class NotPsd(PsdConeError):
    """Input matrix is not positive semidefinite within tolerance."""


class PatternViolation(PsdConeError):
    """Matrix has a non-negligible entry at a prescribed zero position."""


class NotChordal(PsdConeError):
    """Graph contains a chordless cycle of length at least four."""


class SingularBlock(PsdConeError):
    """Requested Schur complement block is numerically singular."""


class NotMember(PsdConeError):
    """Matrix is outside the image cone of the factor parametrization."""


class Degenerate(PsdConeError):
    """Singular input where the fiber solver requires positive definiteness."""


class ZeroDiagonal(PsdConeError):
    """Schur witness requires a strictly positive diagonal entry."""


class ZeroDiagonalParam(PsdConeError):
    """Dual construction requires all singleton parameters to be nonzero."""


class TooManyFaces(PsdConeError):
    """A complex whose facets span more faces than a face list may hold."""


class InternalInconsistency(PsdConeError):
    """Two provably-equivalent computations disagreed beyond tolerance."""


class Undecidable(PsdConeError):
    """No exact membership test applies: the graph is neither chordal nor a chordless cycle."""
