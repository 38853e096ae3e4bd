"""Ostrowski numeration systems: arithmetic, automata, and decision procedure.

The numeration and the three-pass adder are plain integer arithmetic and
are imported with the package.  The automaton layers (``automata``,
``bulk``, ``logic``, ``recognizers``) and the names they export load on
first access (PEP 562).  Of them only ``bulk`` and ``recognizers`` import
numpy (``logic`` loads both), so a process that only adds, or only runs a
stored automaton, never imports numpy.
"""

import importlib

from . import words
from .addition import TraceStep, add, add_words, digitwise_sum, pass1, pass2, pass3
from .contfrac import AutomatonParameters, ContinuedFraction, automaton_parameters
from .errors import (
    ArityMismatch,
    AutomatonTooLarge,
    CfMismatch,
    DigitOutOfRange,
    FormulaSyntaxError,
    FreeVariablePresent,
    IndexBeyondKnownPrefix,
    InputTooShort,
    InternalInvariantError,
    NotQuadratic,
    OstrowskiError,
    UnboundVariable,
)
from .numeration import OstrowskiWord, decode, encode, is_valid

# name -> the module it comes from; a module's own name maps to itself
_LAZY = {
    "automata": "automata",
    "Automaton": "automata",
    "convolve": "automata",
    "bulk": "bulk",
    "logic": "logic",
    "compile_formula": "logic",
    "decide": "logic",
    "enumerate_solutions": "logic",
    "free_vars": "logic",
    "parse": "logic",
    "recognizers": "recognizers",
    "build_adder": "recognizers",
    "build_digit_sum": "recognizers",
    "build_equality": "recognizers",
    "build_less_than": "recognizers",
    "build_pass_automaton": "recognizers",
    "build_va_graph": "recognizers",
    "build_valid_rep": "recognizers",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Automaton",
    "AutomatonParameters",
    "ContinuedFraction",
    "OstrowskiWord",
    "TraceStep",
    "add",
    "add_words",
    "automaton_parameters",
    "build_adder",
    "build_digit_sum",
    "build_equality",
    "build_less_than",
    "build_pass_automaton",
    "build_va_graph",
    "build_valid_rep",
    "bulk",
    "compile_formula",
    "convolve",
    "decide",
    "decode",
    "digitwise_sum",
    "encode",
    "enumerate_solutions",
    "free_vars",
    "is_valid",
    "parse",
    "pass1",
    "pass2",
    "pass3",
    "words",
    "ArityMismatch",
    "AutomatonTooLarge",
    "CfMismatch",
    "DigitOutOfRange",
    "FormulaSyntaxError",
    "FreeVariablePresent",
    "IndexBeyondKnownPrefix",
    "InputTooShort",
    "InternalInvariantError",
    "NotQuadratic",
    "OstrowskiError",
    "UnboundVariable",
]
