"""Smooth words over n-letter alphabets.

Run-length coding and its derivative, cyclic-order pseudo-inverse
expansions, generation of generalized Kolakoski words (the fixpoints
of run-length coding) by a chunked cursor whose memory grows with the
logarithm of the letters taken, the primitive block substitutions
that fix them, and an empirical analysis suite for letter frequencies,
recurrence, occurrence gaps and factor-set closure.
"""

from .analysis import (
    ClosureWitness,
    EqualRunBlock,
    FrequencyReport,
    GapReport,
    GapStability,
    RecurrenceReport,
    closure_check,
    equal_run_blocks,
    exact_frequency_check,
    gap_stability_check,
    is_well_proportioned_prefix,
    letter_frequencies,
    max_gap_report,
    phi_inverse_palindrome_check,
    recurrence_report,
)
from .errors import (
    ExpansionBudgetExceeded,
    InsufficientDepth,
    InvalidRuns,
    NotDifferentiable,
    NotProlongable,
    SmoothwordError,
)
from .expansion import (
    DEFAULT_BUDGET,
    CyclicOrder,
    expand_stream,
    phi_inverse_prefix,
    phi_prefix,
    pseudo_inverse,
    pseudo_inverse_chain,
    pseudo_inverse_with_base,
)
from .factors import FactorIndex, NaiveFactorScan, PieceSource
from .kolakoski import (
    BaseSequenceSpec,
    KolakoskiStream,
    kolakoski_prefix,
    kolakoski_stream,
    verify_fixpoint_prefix,
)
from .substitution import (
    Block,
    IncidenceMatrix,
    Substitution,
    apply,
    build_sigma_even_n,
    build_sigma_r0,
    build_sing_even,
    build_sing_odd,
    build_substitution,
    flatten,
    incidence_matrix,
    is_primitive,
    iterate,
    verify_substitution_fixpoint,
)
from .words import (
    Alphabet,
    Permutation,
    RunDecomposition,
    Word,
    apply_permutation,
    derivative,
    differentiability_order,
    format_symbols,
    is_palindrome,
    is_smooth_finite,
    parse_symbols,
    reverse,
    rle_encode,
    rle_reconstruct,
    write_words,
)

__version__ = "0.1.0"
