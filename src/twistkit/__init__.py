"""twistkit: exact symbolic computation for the quantum-sl2 twist.

Everything is computed over truncated power series in the deformation
parameter h with exact rational coefficients: the deforming map into
U(sl2)[[h]], order-by-order solving and verification of the coproduct
twist, the classical and quantum universal R-matrices, and evaluation in
finite-dimensional spin representations.  All values are immutable and
all operations are pure functions.

The names below are imported from their modules on first use (PEP 562),
so that a process loads only the modules it reads from.
"""

from importlib import import_module

# module -> the names it exports
_EXPORTS = {
    "candidate": "TwistCandidate cocycle_defect kernel_check normalization_check "
                 "reference_candidate second_order_term twist_residual_series "
                 "twist_residuals unitarity_defect",
    "cpoly": "Poly",
    "deform": "PhiSeries delta_q_image generator_images m_J0 m_Jminus m_Jplus "
              "phi q_analog_2h quantum_commutator_check",
    "hseries": "HSeries OrderMismatchError divide mul_sub q_analog q_factorial "
               "series_exp_h sinh_ratio",
    "pbw": "E F H Element casimir commutator counit element_from_json "
           "element_to_json element_to_str from_casimir_basis is_hi_polynomial "
           "shift_h to_casimir_basis",
    "report": "VerificationReport",
    "reps": "RepMatrix SpinRep element_matrix evaluate rep_unitarity_check "
            "semi_universal spin_rep",
    "rmatrix": "classical_R quantum_R_image quasitriangular_residual",
    "tensor": "TensorElement cartan_killing classical_r coproduct "
              "counit_leg flip is_weight_zero outer series_outer tensor_from_json "
              "tensor_to_json tensor_to_str weight",
    "twist": "SolutionSet TwistAnsatz build_candidate solve_order "
             "symmetrize_order",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # read from the module on every access, so a name rebound there (a
    # tracer's wrapper, a test's patch) is what the package hands out
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
