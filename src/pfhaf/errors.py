"""Exception hierarchy shared by all pfhaf modules."""


class PfhafError(Exception):
    """Base class for all library errors."""


class DomainError(PfhafError):
    """An argument violates a mathematical precondition (division by zero,
    mixed radicands, odd dimension, bad index set, ...)."""


class SizeError(PfhafError):
    """An oracle or exponential kernel was asked for a dimension beyond its
    guard."""


class PoleError(PfhafError):
    """A structured builder hit a zero of its form.

    Carries the offending index pair (1-based) when known.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class DegenerateFormError(PfhafError):
    """The form's discriminant vanishes, so the division-form fast path is
    unavailable; callers should fall back to an exponential kernel."""


class GenError(PfhafError):
    """Random instance generation could not satisfy its constraints."""
