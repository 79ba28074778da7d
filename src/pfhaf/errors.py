"""Exception hierarchy shared by all pfhaf modules, and their type refusal."""


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


def need(value, cls):
    """value, refused with DomainError unless it is a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"need {article} {cls.__name__}, got {type(value).__name__}")
    return value
