"""Exact computation with finite-dimensional restricted Lie algebras over
prime fields: structure constants and p-maps, restricted derivations and
first cohomology, searches for square-zero outer derivations, and
claim-verification suites over enumerated populations."""

from .algebra import (Quotient, RestrictedLieAlgebra, direct_product,
                      from_brackets, from_doc, quotient, to_doc, twist_pmap)
from .catalog import (CatalogEntry, default_dim_bound, enumerate_nilpotent,
                      final_remark_algebra, fingerprint, heisenberg,
                      named_entries, one_dim_nil, torus, two_dim_nonabelian)
from .cohomology import (Cochain, RestrictedModule, adjoint_module, b1,
                         find_p_complement, gamma_nontrivial, h1_dim,
                         induced_module, invariants, is_free_over_unipotent,
                         lift_cocycle, socle_unipotent, trivial_module, z1)
from .config import Config, from_env
from .derivations import (Derivation, construct_case_derivation, der, der_p,
                          explicit_h1_char2_outer, find_nilpotent_outer,
                          find_square_zero_outer, h1_adjoint_dim, inner,
                          leibniz_defect, outer_by_centralizer_criterion,
                          restricted_defect)
from .errors import (AntisymmetryError, BudgetExceededError,
                     CertificationError, ConfigError, DocumentError, JacobiError,
                     ModuleValidationError, NotADerivationError,
                     PMapCompatibilityError, PreconditionError, RlaError,
                     ValidationError)
from .harness import (CLAIM_DESCRIPTIONS, InstanceResult, TheoremReport,
                      exception_tag, export_csv, summarize, verify_claim)
from .linalg import (Subspace, coeff_blocks, complements, enumerate_subspaces,
                     kernel, mat_pow, rref, solve)
from .structure import (bracket_space, center, centralizer,
                        codim1_max_p_ideals, derived, is_abelian,
                        is_abelian_subspace, is_ideal, is_nilpotent,
                        is_p_ideal, is_p_subalgebra, is_p_unipotent,
                        is_subalgebra, lower_central_series,
                        maximal_abelian_p_ideal, maximal_torus,
                        nilpotency_class, normalizer, p_closure)

__version__ = "0.1.0"
