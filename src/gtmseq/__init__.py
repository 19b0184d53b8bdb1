"""Generalized Thue-Morse sequences.

Construction by digit counting and by word substitution, exact
periodicity classification, stammering-witness certificates, k-kernel
automata, and arbitrary-precision evaluation of the associated series
and continued fractions.
"""

__version__ = "0.1.0"

from .analytic import (
    ConvergentList,
    TruncatedProductSeries,
    eval_cf,
    eval_series,
    irrationality_estimate,
    periodic_series_value,
    product_coefficients,
)
from .automaton import (
    KernelResult,
    KernelState,
    kernel_brute_force,
    kernel_explore,
)
from .errors import (
    BudgetExceededError,
    FactorizationError,
    GtmseqError,
    MTooSmallError,
    PeriodicSpecError,
    SpecParseError,
    WindowExceededError,
)
from .expansion import (
    DigitExpansion,
    GapMultipleResult,
    digit_count,
    digit_count_mod,
    digit_indicator,
    expand,
    gap_multiple,
    gap_multiple_pair,
)
from .kappa import (
    KappaSpec,
    SequenceWindow,
    a_of_n,
    a_values,
    equally_spaced,
    generate_prefix_morphic,
)
from .periodicity import (
    PeriodicityVerdict,
    aenp_scan,
    brute_force_period,
    classify,
    classify_constant,
)
from .specfile import parse_spec, parse_spec_text, spec_to_text
from .stammer import (
    StammerWitness,
    build_witness,
    min_legal_m,
    verify_witness,
    witness_family,
)

__all__ = [
    "__version__",
    "ConvergentList",
    "TruncatedProductSeries",
    "eval_cf",
    "eval_series",
    "irrationality_estimate",
    "periodic_series_value",
    "product_coefficients",
    "KernelResult",
    "KernelState",
    "kernel_brute_force",
    "kernel_explore",
    "BudgetExceededError",
    "FactorizationError",
    "GtmseqError",
    "MTooSmallError",
    "PeriodicSpecError",
    "SpecParseError",
    "WindowExceededError",
    "DigitExpansion",
    "GapMultipleResult",
    "digit_count",
    "digit_count_mod",
    "digit_indicator",
    "expand",
    "gap_multiple",
    "gap_multiple_pair",
    "KappaSpec",
    "SequenceWindow",
    "a_of_n",
    "a_values",
    "equally_spaced",
    "generate_prefix_morphic",
    "PeriodicityVerdict",
    "aenp_scan",
    "brute_force_period",
    "classify",
    "classify_constant",
    "parse_spec",
    "parse_spec_text",
    "spec_to_text",
    "StammerWitness",
    "build_witness",
    "min_legal_m",
    "verify_witness",
    "witness_family",
]
