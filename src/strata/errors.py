"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the command line
layer can emit ``{"error": code, "detail": text}`` uniformly.
"""


class StrataError(Exception):
    code = "error"

    def __init__(self, detail):
        super().__init__(detail)
        self.detail = str(detail)


class ValidationError(StrataError):
    """Malformed or inconsistent input data."""
    code = "invalid-input"


class ShapeError(ValidationError):
    code = "shape-mismatch"


class ExactnessError(StrataError):
    """An exact-arithmetic operation received non-exact coefficients."""
    code = "inexact-input"


class NotInvertibleError(StrataError):
    """Series inversion at a center where the constant term vanishes."""
    code = "not-invertible"


class GenericityError(StrataError):
    """Two of the diagonal functions share a full gradient at the center."""
    code = "genericity-violated"


class ResonanceError(StrataError):
    """An integer eigenvalue-exponent difference hit a forbidden value."""
    code = "resonant"


class CoalescencePathError(StrataError):
    """A probe sample landed on the coalescence locus."""
    code = "sample-on-coalescence-locus"


class OracleError(StrataError):
    """An oracle system was singular or inconsistent (inadmissible F0) without a PNR violation."""
    code = "oracle-singular"
