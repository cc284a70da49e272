"""Exception types shared across the package.

Every domain error raised by the library derives from DomainError so
callers (and the command line tool) can distinguish bad mathematical
input from programming errors.
"""

from __future__ import annotations

__all__ = [
    "CongruenceFailure",
    "DegenerateOrder",
    "DivisibilityFailure",
    "DomainError",
    "InconsistentFixture",
    "MismatchedOrder",
    "MissingFixture",
    "NotCoprime",
    "ParityFailure",
    "ParseError",
    "UnequalSums",
    "WrongFamily",
]


class DomainError(ValueError):
    """Base class for all input-domain errors raised by this package."""


class NotCoprime(DomainError):
    """Two integers required to be coprime are not."""


class UnequalSums(DomainError):
    """Eschenburg parameter triples whose entry sums differ."""


class DegenerateOrder(DomainError):
    """Parameters give |H^4| = 0, so the space is not in the classified range."""


class ParseError(DomainError):
    """A fixture line could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class InconsistentFixture(DomainError):
    """Externally supplied invariant data contradict recomputed values.

    Raised when fixture s-values conflict with the invariants recomputed
    from (k, l), or when two profiles agree on the classifying s-values
    but disagree on data those values determine (linking class, p1).
    """


class DivisibilityFailure(DomainError):
    """s-values are not in the image of any sphere bundle: 224r*s1, 24r*s2, 6r*s3 not all integral."""


class ParityFailure(DomainError):
    """Necessary parity conditions on the integer invariants E1, E2, E3 fail."""


class CongruenceFailure(DomainError):
    """The congruence E3 - E2 - 3 = 0 mod 6r fails, so no sphere bundle matches."""


class MismatchedOrder(DomainError):
    """A comparison law was invoked on spaces with different |H^4| (or wrong kind)."""


class WrongFamily(DomainError):
    """An operation was invoked on a bundle family it is not defined for."""


class MissingFixture(DomainError):
    """A catalog row has no matching fixture among the loaded fixtures."""
