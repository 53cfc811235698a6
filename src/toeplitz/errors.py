"""Exception hierarchy shared by all toeplitz modules, the default
`--budget` and `charge`, the one check that raises `BudgetExceeded`."""

DEFAULT_BUDGET = 1 << 24


class ToeplitzError(Exception):
    """Base class for all errors raised by this package."""


class EmptyCoding(ToeplitzError):
    """A coding with no tail entries describes no subshift."""


class AllLettersEqual(ToeplitzError):
    """Normalization collapsed the tail to a single letter (periodic word)."""


class HorizonExceeded(ToeplitzError):
    """A generator-backed coding was asked about indices beyond its horizon."""


class BudgetExceeded(ToeplitzError):
    """Materializing a word would exceed the configured symbol budget."""


class InvalidShift(ToeplitzError):
    """A shift value r_j lies outside [0, n_j)."""


class WordNotInLanguage(ToeplitzError):
    """The queried word is not a factor of the subshift."""


class TooSmall(ToeplitzError, IndexError):
    """A length, level, index or size lies below the least one it may take."""


class OutOfTheoremRange(ToeplitzError):
    """The closed-form repetitivity formula does not cover this length."""


class PrefixTooShort(ToeplitzError):
    """The sampled prefix is too short for a frequency estimate."""


class TooManyDigits(ToeplitzError):
    """An integer has more digits than the interpreter converts to text."""


def charge(units: int, budget: int, what: str, unit: str = "") -> None:
    """Raise `BudgetExceeded` if `what` takes more than `budget` units."""
    if units > budget:
        raise BudgetExceeded(f"{what} exceeds the budget of {budget}{unit}")
