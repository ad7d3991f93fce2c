"""Root-of-unity representations with prescribed classical shadow.

At a primitive 2p-th root of unity (p odd), each internal edge carries a
p-dimensional clock/shift pair; the curve operators act exactly, their p-th
Chebyshev transforms are scalars, and those scalars are the holonomy traces
of the classical shadow.  The joint commutant is trivial, and any two
representations with the same central characters intertwine.
"""

from dataclasses import replace

from skeintorus import (
    SausageGraph, build_rep, eval_element, chebyshev_T,
    classical_shadow, verify_cshadow, irreducibility_commutant,
    find_intertwiner, gauge_shift,
)

g = SausageGraph(2, True)
rep = build_rep(g, 3, {"a0": 2, "a1": 5, "c1": 3})
table = rep.table  # the curve images the representation evaluates
print(f"graph {g}: dimension {rep.dim} = p^(3g-3)")

# the pants curve acts diagonally with clock eigenvalues
alpha = table.image(g.curve_by_name("alpha[a0]"))
M = eval_element(alpha, rep)
print("\npants curve acts diagonally:", M.is_diagonal())
print("first eigenvalues:", [str(v) for v in M.parts[rep.space.zero_shift][:3]])

# Chebyshev scalarity: T_p of every curve image is an exact scalar matrix,
# and the scalar is minus the shadow trace
for name in sorted(table.catalogue):
    S = chebyshev_T(3, eval_element(table.image(table.catalogue[name]), rep))
    print(f"  T_3({name}) = {S.scalar_value()} * Id")

print("\nshadow trace of alpha[a0]:", classical_shadow(g.curve_by_name("alpha[a0]"), rep),
      "(equals x^6 + x^-6 for x = 2)")

# the central p-th powers reproduce the closed shadow formulas exactly
report = verify_cshadow(rep)
print("\nshadow formulas:", "all pass" if report.all_pass else "FAILED")

# irreducibility: the commutant of the full curve-operator set is trivial
print("commutant dimension:", irreducibility_commutant(rep))

# unicity: gauge shifts preserve every central character, so an invertible
# intertwiner exists; scaling one gauge scalar breaks the central character
# and no intertwiner survives
other = gauge_shift(rep, j={"a0": 1, "c1": 2}, m={"a1": 1})
print("gauge-shifted partner intertwines:", find_intertwiner(rep, other) is not None)

mismatched = replace(rep, y={**rep.y, "a0": rep.field.from_rational(2)})
print("mismatched central scalar intertwines:",
      find_intertwiner(rep, mismatched) is not None)
