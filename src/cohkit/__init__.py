"""Coherence of conditional probability assessments, in exact arithmetic.

Decide de Finetti coherence of (conditional) probability assessments,
construct Dutch books and quadratic-penalty dominators for incoherent
ones, compute coherent-extension intervals for four three-valued
conjunction/disjunction pairs and for the conjunction/disjunction of
conditionals as random quantities, and verify the associated logical and
probabilistic properties.
"""

from .coherence import (
    Assessment,
    CoherenceVerdict,
    DutchBook,
    ExtensionBounds,
    brier_dominator,
    check_coherence,
    check_hull,
    dutch_book,
    extension_bounds,
)
from .compound import (
    ConditionalRandomQuantity,
    compound_identity_check,
    demorgan_check,
    entailment_problem,
    frechet_bounds,
    frechet_bounds_or,
    gs_and,
    gs_and_n,
    gs_or,
    gs_or_n,
    inclusion_exclusion,
    p_consistent,
    p_entails,
    prevision_from_distribution,
    sum_rule_check,
)
from .events import (
    BOTTOM,
    Atom,
    Formula,
    TOP,
    Universe,
    eval_formula,
    implies,
    parse_formula,
)
from .lp import hull_membership, kernel_name
from .rationals import rat
from .trivalent import (
    ConditionalEvent,
    TriValue,
    ce_equal,
    check_logical_property,
    eval_conditional,
    gn_inclusion,
    negate,
    trivalent_and,
    trivalent_or,
)

__version__ = "0.1.0"
