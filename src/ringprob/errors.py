"""Exception types shared across the package."""


class RingProbError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RingProbError, ValueError):
    """A construction or input violates a documented rule."""


class NonPrime(ValidationError):
    """A claimed prime characteristic is composite (or < 2)."""


class DegreeOutOfRange(ValidationError):
    """Extension degree outside the supported range."""


class MixedRings(ValidationError):
    """Operands belong to different rings."""


class SizeCapExceeded(RingProbError):
    """Ring is larger than the enumeration size cap."""

    _above = "the cap of {} (use --force / cap=None to override)"

    def __init__(self, size: int | None, cap: int, min_bits: int = 0):
        """size is the ring's order, or None when only order >= 2^min_bits
        is known."""
        if size is None:
            count = f"at least 2^{min_bits}"
        else:
            try:
                count = str(size)
            except ValueError:      # more digits than int-to-str conversion allows
                count = f"at least 2^{size.bit_length() - 1}"
        super().__init__(f"ring has {count} elements, above {self._above.format(cap)}")
        self.size = size
        self.cap = cap


class EnumerationLimitExceeded(SizeCapExceeded):
    """Ring is larger than the enumeration limit, which no cap lifts."""

    _above = "the enumeration limit of {}, which --force / cap=None does not lift"


class NotAnIdeal(ValidationError):
    """Element set fails one of the two-sided ideal closure checks."""


class ImproperIdeal(ValidationError):
    """Ideal equals the whole ring where a proper ideal is required."""


class NotLocal(ValidationError):
    """Operation requires a local ring."""


class NTooSmall(ValidationError):
    """Local bounds/equivalences need ring order q^n with n >= 2."""


class NotChain(ValidationError):
    """Closed form requires a local ring with maximal radical chain."""


class NotJ2Zero(ValidationError):
    """Closed form requires a local ring whose radical squares to zero."""


class BadDimensionOrder(ValidationError):
    """Subspace counting needs dimensions 0 <= r <= k <= n."""


class FormulaUnavailable(ValidationError):
    """No closed form applies to the given ring and element."""


class ParseError(RingProbError, ValueError):
    """Malformed ring spec or element literal; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position
