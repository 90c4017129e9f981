"""twistkit: exact symbolic computation for the quantum-sl2 twist.

Everything is computed over truncated power series in the deformation
parameter h with exact rational coefficients: the deforming map into
U(sl2)[[h]], order-by-order solving and verification of the coproduct
twist, the classical and quantum universal R-matrices, and evaluation in
finite-dimensional spin representations.  All values are immutable and
all operations are pure functions.
"""

from .cpoly import Poly
from .deform import (PhiSeries, delta_q_image, generator_images, m_J0,
                     m_Jminus, m_Jplus, phi, q_analog_2h,
                     quantum_commutator_check)
from .hseries import (HSeries, OrderMismatchError, divide, mul_sub,
                      q_analog, q_factorial, series_exp_h, sinh_ratio)
from .pbw import (CasimirTerm, E, F, H, Element, casimir, commutator, counit,
                  element_from_json, element_to_json, element_to_str,
                  from_casimir_basis, is_hi_polynomial, shift_h,
                  to_casimir_basis)
from .report import VerificationReport
from .reps import (RepMatrix, SpinRep, element_matrix, evaluate,
                   rep_unitarity_check, semi_universal, spin_rep)
from .rmatrix import classical_R, quantum_R_image, quasitriangular_residual
from .tensor import (TensorElement, TensorElement3, cartan_killing,
                     classical_r, coproduct, counit_leg, flip, is_weight_zero,
                     outer, series_outer, tensor_from_json, tensor_to_json,
                     tensor_to_str, weight)
from .twist import (AnsatzUnknown, SolutionSet, TwistAnsatz, TwistCandidate,
                    build_candidate, cocycle_defect, kernel_check,
                    normalization_check, reference_candidate,
                    second_order_term, solve_order, solve_with_escalation,
                    symmetrize_order, twist_residual_series, twist_residuals,
                    unitarity_defect)

__version__ = "0.1.0"
