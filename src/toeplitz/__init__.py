"""Simple Toeplitz subshifts: construction, combinatorics, and spectra.

The package builds subshifts from coding sequences (a_k), (n_k) and computes
their subword complexity, palindrome complexity, de Bruijn graphs,
repetitivity, and Boshernitzan verdicts both by closed formulas and by
brute-force oracles, plus transfer-matrix cocycles and finite-section
spectra of the associated Jacobi operators.
"""

from .coding import (
    Alphabet,
    Coding,
    CodingEntry,
    GeneratorTail,
    PeriodicTail,
    eventual_alphabet,
    kappa,
    m_sequence,
    normalize,
    stabilization_index,
    tail_alphabet,
)
from .errors import (
    AllLettersEqual,
    BudgetExceeded,
    EmptyCoding,
    HorizonExceeded,
    InvalidShift,
    OutOfTheoremRange,
    PrefixTooShort,
    ToeplitzError,
    WordNotInLanguage,
)
from .language import right_extensions
from .presets import grigorchuk, l_grigorchuk, liuqu, parse_coding_spec, preset
from .verdicts import Status, Verdict
from .words import UndeterminedPart, block, block_length, undetermined_part, word_prefix

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Coding", "CodingEntry", "GeneratorTail", "PeriodicTail",
    "eventual_alphabet", "kappa", "m_sequence", "normalize",
    "stabilization_index", "tail_alphabet",
    "AllLettersEqual", "BudgetExceeded", "EmptyCoding", "HorizonExceeded",
    "InvalidShift", "OutOfTheoremRange", "PrefixTooShort", "ToeplitzError",
    "WordNotInLanguage", "right_extensions",
    "grigorchuk", "l_grigorchuk", "liuqu", "parse_coding_spec", "preset",
    "Status", "Verdict", "UndeterminedPart", "block", "block_length",
    "undetermined_part", "word_prefix",
]
