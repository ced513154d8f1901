"""Embed finite semigroups into finitely presented congruence-free monoids.

Given a finite semigroup by its Cayley table, this package generates a finite
complete (terminating and confluent) string rewriting system presenting a
monoid that contains the semigroup and has no congruences besides equality
and the universal one.  Every claim is executable: the six coloring
conditions, completeness via critical pairs, the embedding, constructive
zero-simplicity, and collapse witnesses that derive (1, 0) from any pair of
distinct elements.
"""

from .coloring import (
    CONDITION_NAMES,
    Coloring,
    ColoringParseError,
    build_coloring,
    check_conditions,
    coloring_entry,
    conditions_ok,
    format_coloring,
    parse_coloring,
)
from .presentation import (
    ColoringConditionError,
    EMPTY_WORD,
    Letter,
    NotAssociativeError,
    Presentation,
    RULE_FAMILIES,
    Rule,
    Word,
    WordSyntaxError,
    ZERO_LETTER,
    ZERO_WORD,
    alphabet,
    format_word,
    generate_presentation,
    parse_word,
    presentation_from_json,
    presentation_to_json,
    rule_counts,
)
from .rewrite import (
    CriticalPair,
    check_local_confluence,
    critical_pairs,
    enumerate_normal_forms,
    is_normal_form,
    normal_form,
)
from .semigroup import (
    BUILTIN_NAMES,
    CayleyParseError,
    CayleyTable,
    builtin,
    format_cayley,
    is_associative,
    parse_cayley,
)
from .witness import (
    WitnessStep,
    WitnessTrace,
    collapse,
    format_trace,
    parse_trace,
    unit_context,
    verify_trace,
)

__version__ = "0.1.0"
