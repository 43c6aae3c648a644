"""Exception hierarchy for domain errors.

Every error raised on invalid input or violated preconditions derives from
:class:`DBaseError`, so callers (and the CLI) can catch one type.
"""


class DBaseError(Exception):
    """Base class for all domain errors raised by this package."""


class FileAccessError(DBaseError):
    """A file could not be opened, read as UTF-8 text, or written."""


class ParseError(DBaseError):
    """Malformed input text (missing ground line, bad arrow, bad label...)."""


class UnknownElement(ParseError):
    """A token refers to an element not declared in the ground line."""


class DuplicateGround(ParseError):
    """Duplicate label in a ground declaration, or a repeated ground line."""


class DuplicateSet(ParseError):
    """The same set appears twice in a set-family file."""


class GroundTooLarge(DBaseError):
    """The ground set exceeds the configured maximum for this operation."""


class NonBinaryImplication(DBaseError):
    """An operation restricted to binary implicational bases got a wider one."""


class GroundMismatch(DBaseError):
    """Two inputs that must share a ground set declare different ones."""


class NotAntichain(DBaseError):
    """A family expected to be pairwise incomparable has comparable members."""


class NotClosed(DBaseError):
    """A set expected to be closed is not."""


class NotStandard(DBaseError):
    """The closure system is not standard (some cl(a) minus a is not closed)."""


class NotSpanning(DBaseError):
    """Extreme elements of the input do not span it (precondition violated)."""


class NoDGenerators(DBaseError):
    """The target element admits no non-binary minimal generators."""


class TargetInSet(DBaseError):
    """The target element belongs to the candidate generator."""


class NotDGenerator(DBaseError):
    """A set assumed to be a D-generator fails the characterization."""


class MalformedGadget(DBaseError):
    """Inputs do not look like the output of the embedding construction."""


class StateLimitExceeded(DBaseError):
    """The traversal's visited-set memory cap was hit."""
