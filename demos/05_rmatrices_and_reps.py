"""R-matrices, the quasitriangular twist relation, and spin representations.

The classical R-matrix is q^P with P the Cartan-Killing element; the
quantum one enters through its deforming-map image.  The same candidate
twist that conjugates the coproducts also ties the two R-matrices
together: R_q~ F = sigma(F) R.  Everything can be evaluated exactly in
the rational spin-j representations.
"""

import sys

from twistkit import (classical_R, evaluate, quantum_R_image,
                      quasitriangular_residual, reference_candidate,
                      rep_unitarity_check, spin_rep, unitarity_defect)

N = 2
R = classical_R(N)
Rq = quantum_R_image(N)
print("classical R = q^P:")
for k, c in enumerate(R.coeffs):
    print(f"  h^{k}: {c}")
print("quantum R image:")
for k, c in enumerate(Rq.coeffs):
    print(f"  h^{k}: {c}")

cand = reference_candidate(2)
print("\nR_q~ F - sigma(F) R vanishes through order 2:",
      quasitriangular_residual(cand, 2).is_zero())

# unitarity holds in the spin-1/2 (x) spin-1/2 representation but not
# universally
print("\n" + str(rep_unitarity_check(cand, 2)))
print("universal defect sigma(F)F - 1 at order 2 is nonzero:",
      not unitarity_defect(cand).coeffs[2].is_zero())

# exact matrix form of the twist in spin-1/2 (x) spin-1/2
half = spin_rep(1)
print("\nF in spin-1/2 (x) spin-1/2:")
evaluate(cand.series, half, half).render_text(sys.stdout)
