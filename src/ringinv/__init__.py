"""Exact generalized inverses in Z_n and matrix rings over Q / F_p."""

from .errors import (BudgetError, NotEnumerableError, PreconditionError,
                     RingInvError, RingMismatchError,
                     UnsupportedInvolutionError, VerificationError)
from .rings import (MatF, MatQ, MatrixRing, ModularRing, RingElement, Zn,
                    classify, inverse_of_unit, is_invertible,
                    ring_from_name)
from .ideals import (LEFT, RIGHT, SidedIdeal, all_ideals, annihilator,
                     complement, direct_sum, multiply_ideal, orthogonal,
                     phi_preimage, principal)
from .projectors import (Projector, phi_equals_projector, projector,
                         projector_from_idempotent)
from .geninv import (EQUATION_TOKENS, InverseReport, NAMED_INVERSES,
                     NAMED_SYSTEMS, any_inner, core_inverse,
                     count_inverse_set, drazin_index, drazin_inverse,
                     dual_core_inverse, enumerate_inverse_set,
                     group_inverse, inner_inverse, moore_penrose,
                     parse_equations, reflexive_inverse, satisfies)
from .prescribed import (IdealConstraints, ParamFamily, mitsch_leq,
                         one_inverse_family, one_inverse_solution_set,
                         outer_with)
from .special import (bc_inverse, bott_duffin_inverse,
                      djordjevic_wei_inverse, e_core, f_dual_core,
                      image_kernel_inverse, left_v_dual_core, pq_inverse,
                      right_w_core, star_class_set, v_dual_core, w_core,
                      weighted_mp)

__version__ = "0.1.0"

# the oracle is loaded on first use, so that compute never compiles it
_ORACLE_NAMES = ("CATALOG", "TheoremCase", "VerificationReport", "verify",
                 "verify_all")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
