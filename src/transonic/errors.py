"""Exception hierarchy shared by all solver and field modules."""


class TransonicError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(TransonicError):
    """Two fields that must share a grid do not."""


class SymmetryViolation(TransonicError):
    """A field's values do not honor its declared symmetry tag."""


class NonZeroMean(TransonicError):
    """An x-antiderivative was requested for data with nonzero x-mean."""


class NotConverged(TransonicError):
    """An iterative solve exhausted its iteration budget."""


class QuadratureNotConverged(TransonicError):
    """Adaptive quadrature could not reach the requested accuracy."""


class ImaginaryResidue(TransonicError):
    """An inverse transform that must give a real field left an imaginary
    part above tolerance: the symbol ratio lost its Hermitian symmetry."""


class GuardViolated(TransonicError):
    """An input left the regime in which a contraction is guaranteed."""


class MultipleNegative(TransonicError):
    """More than one negative eigenvalue was found where exactly one is
    structurally required; signals grid/domain inadequacy or an epsilon
    outside the supported range."""
