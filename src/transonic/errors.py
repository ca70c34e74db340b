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


class GuardViolated(TransonicError):
    """A solve left the regime in which its contraction is guaranteed."""


class MultipleNegative(TransonicError):
    """More than one negative eigenvalue was found where exactly one is
    structurally required; signals grid/domain inadequacy or an epsilon
    outside the supported range."""
