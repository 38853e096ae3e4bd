"""Ostrowski numeration systems: arithmetic, automata, and decision procedure."""

from . import bulk, words
from .addition import TraceStep, add, add_words, digitwise_sum, pass1, pass2, pass3
from .automata import Automaton, convolve
from .contfrac import AutomatonParameters, ContinuedFraction, automaton_parameters
from .errors import (
    ArityMismatch,
    CfMismatch,
    DigitOutOfRange,
    FormulaSyntaxError,
    FormulaTooDeep,
    FreeVariablePresent,
    IndexBeyondKnownPrefix,
    InputTooShort,
    InternalInvariantError,
    NotQuadratic,
    OstrowskiError,
    UnboundVariable,
)
from .logic import compile_formula, decide, enumerate_solutions, free_vars, parse
from .numeration import OstrowskiWord, decode, encode, is_valid
from .recognizers import (
    build_adder,
    build_digit_sum,
    build_equality,
    build_less_than,
    build_pass_automaton,
    build_va_graph,
    build_valid_rep,
)

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
    "CfMismatch",
    "DigitOutOfRange",
    "FormulaSyntaxError",
    "FormulaTooDeep",
    "FreeVariablePresent",
    "IndexBeyondKnownPrefix",
    "InputTooShort",
    "InternalInvariantError",
    "NotQuadratic",
    "OstrowskiError",
    "UnboundVariable",
]
