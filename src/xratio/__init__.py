"""Exact verification toolkit for the cross-ratio rationality computations.

The package re-derives, from scratch and over several exact coefficient
fields, every identity, group-theoretic fact, conic computation, and fixed
field certificate behind the rationality verdicts for the invariant fields
of the order-4 point permutations.  The `replay` command line drives the
full checklist; the modules are usable as a library.
"""

from .fields import (Field, FieldElement, XratioError, field_by_name,
                     gaussian_rationals, prime_field, prime_quadratic_field,
                     rationals)
from .poly import MultiPoly, Ring, RingMismatchError
from .ratfunc import (CharacteristicError, DegenerateSubstitutionError,
                      RatFunc, ZeroDenominatorError, jacobian_rank, rat, rf_eq,
                      rvar)
from .exprparse import ParseError, parse_expression
from .perms import (IDENTITY, all_perms, compose, cyclic_order4_subgroups,
                    has_fixed_point, inverse, klein_group, klein_part, order,
                    parse_perm, perm_str, splits, subgroup_conjugacy_classes,
                    subgroups)
from .autos import Automorphism, perm_automorphism
from .projline import AffineMap, ProjPoint1, borel_stabilizer
from .conic import (DegenerateConicError, IsotropyDecision, ObstructionRecord,
                    ParametrizationMap, ProjPoint2, SearchBudgetError,
                    TernaryForm, VerificationError, bounded_point_search,
                    char2_form, criterion_form, decide_isotropy, known_point,
                    parametrize, standard_form)
from .certs import (Certificate, CertFormatError, CertVerification,
                    parse_certificate, shipped_certificate,
                    shipped_certificates, verify_certificate)
from .report import (ASSUMED, EVIDENCE, FAIL, PASS, SKIPPED, CheckResult,
                     Report, RunConfig, VERSION)
from .checks import CHECK_IDS, CHECKS, run_checklist

__version__ = VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
