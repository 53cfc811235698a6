"""Simple Toeplitz subshifts: construction, combinatorics, and spectra.

The package builds subshifts from coding sequences (a_k), (n_k) and computes
their subword complexity, palindrome complexity, de Bruijn graphs,
repetitivity, and Boshernitzan verdicts both by closed formulas and by
brute-force oracles, plus transfer-matrix cocycles and finite-section
spectra of the associated Jacobi operators.

The public names below load their submodule on first access (PEP 562), so
importing the package, or running one CLI subcommand, compiles only the
modules that are used.  Within a module, a layer that one path alone needs
is imported on that path: `repetitivity` loads `words` and `language` for
its tables and `fractions` and `verdicts` for `alpha_verdict`, and
`boshernitzan` loads `fractions`, `language` and `words` for `estimate_eta`
only.  Records are immutable named tuples.  Those that check their fields
subclass `coding.checked_record` and check in `__new__`, which `_make`,
`_replace` and `copy.replace` go through as well.
"""

import importlib

_EXPORTS = {
    "coding": (
        "Alphabet", "Coding", "CodingEntry", "GeneratorTail", "PeriodicTail",
        "eventual_alphabet", "kappa", "normalize", "stabilization_index",
        "tail_alphabet",
    ),
    "errors": (
        "AllLettersEqual", "BudgetExceeded", "EmptyCoding", "HorizonExceeded",
        "InvalidShift", "OutOfTheoremRange", "PrefixTooShort", "ToeplitzError",
        "WordNotInLanguage",
    ),
    "language": ("right_extensions",),
    "presets": ("grigorchuk", "l_grigorchuk", "liuqu", "parse_coding_spec",
                "preset"),
    "verdicts": ("Status", "Verdict"),
    "words": ("UndeterminedPart", "block", "block_length", "undetermined_part",
              "word_prefix"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
