"""Exact skein-algebra computations inside localized quantum tori.

The package is organised in layers:

- ``exactalg``: Laurent polynomials, normal-form fractions, cyclotomic scalars.
- ``qtorus``: the noncommutative localized quantum torus and its automorphisms.
- ``sausage``: the chain-of-handles pants decomposition, its dual graph,
  parity lattices, the even subalgebra and the catalogue of generator curves.
- ``embed``: the curve images, the Dehn-twist calculus on them, and the
  symbolic identity suites S1..S11.
- ``repbuild``: irreducible root-of-unity representations with prescribed
  classical shadow, shadow-trace formulas, commutants and intertwiners.
- ``cli``: expression parser and the ``skein-torus`` command line front end.
"""

from .exactalg import (
    VarContext, LPoly, Frac, CycloField, Cyclo,
    specialize_cyclotomic,
    u_poly, quantum_int, cyclotomic_polynomial, parse_cyclo_scalar,
    ContextMismatch, InversionError, SpecializationError, ExponentOverflow,
)
from .qtorus import (
    QTElem, qt_mul, qt_add, commutator_A, automorphism_tau_c, a0_membership,
    RoleError,
)
from .sausage import SausageGraph, CurveId
from .embed import (
    SigmaTable, SuiteReport, IdentityResult, sigma_generator, twist_image,
    scaled_twist, run_identity_suite, fracdehn_check,
    expand_support_check, suite_ids, suite_supported, check_suite, ConfigError,
)
from .repbuild import (
    Rep, CMatrix, RepSpace, genericity_check, build_rep, eval_element,
    chebyshev_T, classical_shadow, shadow_scalar, verify_cshadow,
    irreducibility_commutant, find_intertwiner, gauge_shift,
    MembershipError, GenericityError, ReducibleError, DimensionError,
)
from .cli import parse_expression, ParseError, main

__version__ = "0.1.0"
