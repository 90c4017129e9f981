"""Exact arithmetic in U(sl2): normal ordering, the Casimir, and the
Casimir-adapted basis."""

from twistkit import (E, F, H, casimir, commutator, from_casimir_basis,
                      to_casimir_basis)

# Products reduce to the normal order E^e F^f H^d automatically.
print("F*E        =", F * E)
print("H^2 E^2    =", H * H * E * E, "  (the exchange relation at work)")

# The quadratic Casimir and its centrality.
I = casimir()
print("\nI          =", I)
print("[I, E]     =", commutator(I, E))
print("[I, F]     =", commutator(I, F))

# Mixed EF pairs can be eliminated in favour of I: {H^a I^b E^n} u
# {H^a I^b F^n} is a basis, and the key (a, b, n) names H^a I^b E^n for
# n > 0, H^a I^b F^-n for n < 0 and H^a I^b for n = 0.
x = E * E * F * H
print("\nx          =", x)
coords = to_casimir_basis(x)
for (a, b, n), coeff in sorted(coords.items()):
    g = "" if n == 0 else f" E^{n}" if n > 0 else f" F^{-n}"
    print(f"   key {(a, b, n)}: {coeff} * H^{a} I^{b}{g}")
print("round trip ok:", from_casimir_basis(coords) == x)
