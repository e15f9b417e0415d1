"""Desk-scale computational algebra for zero-divisors of monoid algebras.

Finite commutative rings and modules are explicit tables, commutative monoids
come as Cayley tables or integer lattices, and elements of R[S] and M[S] are
finite-support series. On top sit content ideals, minimal Dedekind-Mertens
exponents, McCoy witnesses, zero-divisor decompositions, Property (A), and
window-exhaustive verifiers for the transfer statements, all reachable from a
JSON-session command line tool.
"""

__version__ = "0.1.0"

from .errors import (
    AlgebraError,
    AxiomError,
    HypothesisError,
    InvariantViolation,
    PreconditionError,
    SessionError,
    SizeCapError,
    StructureMismatchError,
    ZeroModuleError,
)
from .finite_algebra import (
    FiniteModule,
    FiniteRing,
    Ideal,
    Submodule,
    SubmoduleClassification,
    annihilator_in_module,
    associated_primes,
    build_truncated_poly_ring,
    build_zmod,
    classify_submodule,
    direct_sum,
    enumerate_ideals,
    enumerate_submodules,
    ideal_action_submodule,
    ideal_generated,
    ideal_power,
    ideal_product,
    is_prime_ideal,
    module_from_tables,
    prime_ideals,
    quotient_module,
    quotient_ring,
    ring_as_module,
    submodule_from_members,
    submodule_generated,
    validate_module,
    validate_ring,
    zero_divisor_set,
)
from .monoids import (
    Monoid,
    cyclic_group_monoid,
    free_monoid,
    is_cancellative,
    is_torsion_free,
    monoid_from_table,
    monoid_scale,
    saturating_monoid,
)
from .series import (
    DMResult,
    DMStep,
    ExtendedIdeal,
    Series,
    ZeroDivisorVerdict,
    build_noncancellative_counterexample,
    build_torsion_counterexample,
    constant_series,
    content,
    dedekind_mertens_exponent,
    extended_ideal_membership,
    is_zero_divisor_series,
    make_series,
    mccoy_witness,
    monomial_series,
    series_multiply,
)
from .zd import (
    PrimalReport,
    PrimeDecomposition,
    PropertyAReport,
    VeryFewReport,
    check_property_a,
    decompose_zero_divisors,
    has_very_few_zero_divisors,
    is_primal,
)
from .verify import (
    DEFAULT_BUDGET,
    SupportWindow,
    VerificationReport,
    verify_domain_prime_extension,
    verify_finite_ring_chain,
    verify_mccoy_equivalence,
    verify_regularity_transfer,
    verify_submodule_transfer,
    verify_zero_divisor_transfer,
)
from .session import Session, dump_session, execute, load_session
