"""Exact computations with free Lie rings on graded alphabets: Lyndon bases,
metabelian Lie powers, Smith normal form, and torsion of graded quotients."""

__version__ = "0.1.0"

from .words import (Alphabet, Generator, LyndonWord, is_lyndon, lyndon_words,
                    lyndon_words_of_length, lyndon_words_with_content, unit_alphabet)
from .elements import (Domain, DomainError, GF, IntegralityError, LieElement,
                       MixedElement, NotLieElementError, QQ, SymElement,
                       TensorElement, ZZ, bracket, bracketing, generator_element,
                       left_normalize, lie_from_tensor, lyndon_monomial,
                       normal_form, to_tensor)
from .zlinalg import (CokernelStructure, IntLattice, SNFResult,
                      cokernel_structure, hermite_normal_form, integer_kernel,
                      order_in_cokernel, saturation, smith_normal_form,
                      solve_left)
from .maps import (ActionSpec, ExactnessReport, MetabelianElement, check_exactness,
                   derive, eta, kappa, lam, metabelian_normal_coords,
                   metabelian_of_word, mu, normal_words, nu, rho, theta,
                   theta_presum)
from .torsion import (FreenessReport, MetabelianTorsionReport, TorsionEngine,
                      TorsionReport, a_alphabet, a_generator, a_generators,
                      action_matrix, bp_freeness_check, bp_kernel_basis,
                      graded_cokernel, lie_power_basis, metabelian_torsion_check,
                      theorem_element, torsion_report, verify_theorem_degree)
from .charp import PBWBasis, SummandReport, bp_space, check_summand, pbw_basis
from .exprs import ParseError, format_lie, parse_expression, parse_lie
