"""Hyperquasi-equational reasoning over finite signatures.

Terms and hypersubstitutions, satisfaction of quasi-equations in finite
algebras (classical, hyper, and monoid-restricted), derived algebras and
solidity checks, and a proof checker / normaliser for the matching
calculi, plus a small text format and CLI tying it together.
"""

from .algebras import AlgebraError, FiniteAlgebra, all_algebras
from .dsl import (
    ParseError,
    ResolveError,
    Workspace,
    parse_quasi,
    parse_term,
    render_algebra_file,
    render_proof_file,
    render_theory_file,
)
from .hypersubs import HyperSub, Monoid, MonoidError
from .proofs import (
    Compat,
    Cut,
    Ext,
    Hyp,
    HypSub,
    Logic,
    Mp,
    Proof,
    ProofBuilder,
    ProofError,
    Refl,
    SaturationResult,
    Subst,
    Sym,
    TermCompat,
    Trans,
    check_proof,
    derive_term_compat,
    from_q_proof,
    hyperclose,
    hyperclose_detailed,
    is_normal,
    map_proof,
    normalize,
    saturate,
    strip_to_q,
)
from .semantics import (
    BasicTermFailure,
    CounterExample,
    SolidityReport,
    Theory,
    basic_terms,
    check_absorption,
    check_basic_preservation,
    check_solidity,
    classify_basic,
    compatibility_equations,
    hyper_satisfies,
    hyper_satisfies_theory,
    is_compatible,
    is_flat,
    is_zero_semilattice,
    satisfies,
    satisfies_theory,
    zero_semilattice_equations,
)
from .terms import (
    App,
    Equation,
    QuasiEquation,
    Signature,
    Substitution,
    Term,
    TermError,
    Var,
    format_term,
    term_depth,
    variables,
)

__version__ = "0.1.0"
