"""A tour of the exact arithmetic layers.

Builds the dual graph of a chain-of-handles pants decomposition, plays with
Laurent polynomials and fractions over it, and exercises the noncommutative
product of the localized quantum torus.
"""

from skeintorus import (
    SausageGraph, LPoly, Frac, QTElem, u_poly, quantum_int,
    commutator_A, automorphism_tau_c, a0_membership,
)

# the genus-2 closed surface: edges a0, a1 (the two handle loops) and the
# separating edge c1; two trivalent vertices
g = SausageGraph(2, True)
print("graph:", g)
print("internal edges:", g.internal_edges)
print("vertices:", g.vertices)

ctx = g.ctx
print("\nvariables:", ctx.names)

# Laurent polynomials are exact: {2} + {1}(A^2 + A^-2) = 2 {2}
lhs = quantum_int(ctx, 2) + quantum_int(ctx, 1) * (LPoly.a_power(ctx, 2) + LPoly.a_power(ctx, -2))
print("\n{2} + {1}(A^2+A^-2) =", lhs)

# fractions keep factored denominators and cancel exactly:
# U((AQ)^2) / U(AQ) = AQ + A^-1 Q^-1
f = Frac.make(u_poly(ctx, {"Q[a0]": 2}, 2), [u_poly(ctx, {"Q[a0]": 1}, 1)])
print("U((AQ)^2)/U(AQ) =", f)
print("equality is cross multiplication:",
      f * f.inv() == Frac.from_int(ctx, 1))

# the one nontrivial commutation: Q_e E_e = A E_e Q_e
Q = QTElem.scalar(g, Frac.from_poly(LPoly.monomial(ctx, {"Q[a0]": 1})))
E = QTElem.e_monomial(g, {"a0": 1})
print("\nQ_a0 * E_a0       =", Q * E)
print("A * (E_a0 * Q_a0) =", (E * Q).mul_a_power(1))

# the twist automorphism at the separating edge sends E_c^k to
# (-A)^{(k+1)^2 - 1} E_c^k Q_c^{2k}
print("\ntau_c(E_c^2) =", automorphism_tau_c(QTElem.e_monomial(g, {"c1": 2}), "c1"))

# the even subalgebra: even loop exponents, parity-constrained E exponents,
# denominators built from U(A^n Q^2) factors
print("\nE_c1 (odd) in even subalgebra? ", a0_membership(QTElem.e_monomial(g, {"c1": 1})))
print("E_c1^2 in even subalgebra?      ", a0_membership(QTElem.e_monomial(g, {"c1": 2})))

# the A-commutator of two images is how Dehn twists act
from skeintorus import SigmaTable
table = SigmaTable(g)
alpha = table.image(g.curve_by_name("alpha[a0]"))
beta = table.image(g.curve_by_name("beta[1]"))
print("\n[alpha_a0, beta_1]_A =", commutator_A(alpha, beta))
