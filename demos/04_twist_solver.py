"""Solving the coproduct twist order by order.

The order-k residual equations are linear in the unknown coefficient F_k;
writing them in the basis {H^a I^b E^n} u {H^a I^b F^n} of each tensor
leg against a weight-zero polynomial ansatz gives an exact rational
linear system.  The minimal order-1 solution is the classical r-matrix;
at order 2 the solver's particular solution differs from the explicit
reference term by a kernel element (the twist-class ambiguity).  The
kernel is certified to be spanned by the invariants I1^a I2^b P^c inside
the ansatz (P the Cartan-Killing element); its elements are built only
when they are read, so printing its dimension builds none.
"""

from twistkit import (TensorElement, TwistCandidate, build_candidate,
                      classical_r, kernel_check, reference_candidate,
                      second_order_term, solve_order, twist_residuals)

one = TwistCandidate.from_coefficients([TensorElement.one()])

sol1 = solve_order(1, one)
print("order 1:", sol1.status, f"({sol1.unknown_count} unknowns, rank {sol1.rank})")
print("  particular       =", sol1.particular)
print("  equals r-matrix  :", sol1.particular == classical_r())
print("  kernel dimension =", len(sol1.homogeneous),
      "(the invariants I1^a I2^b P^c with c <= 1, a + b + 2c <= 2)")

lower = TwistCandidate.from_coefficients([TensorElement.one(), classical_r()])
sol2 = solve_order(2, lower)
diff = sol2.particular - second_order_term()
print("\norder 2:", sol2.status, f"({sol2.unknown_count} unknowns, rank {sol2.rank})")
print("  differs from the reference term by a kernel element:",
      kernel_check(diff))

# chain the orders into a candidate and verify it end to end
cand, _ = build_candidate(2)
print("\nassembled candidate verifies at order 2:",
      twist_residuals(cand, 2).passed)
print("reference candidate verifies at order 2 :",
      twist_residuals(reference_candidate(2), 2).passed)
