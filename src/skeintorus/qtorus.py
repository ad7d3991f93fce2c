"""The localized quantum torus attached to a trivalent graph.

Elements are finite sums  sum_k  E^k F_k  with k an integer exponent vector
over the internal edges and F_k a fraction in the commuting variables
(A, Q_e, C_u).  The E's are stored on the left; the single nontrivial
relation Q_e E_e = A E_e Q_e is realised by the product rule

    (E^k R) (E^l S)  =  E^{k+l} * shift(R, l) * S

where shift substitutes Q_e -> A^{l_e} Q_e.  Multiplying by a pure
coefficient on the right therefore never shifts, while multiplying on the
left does; formulas must be transcribed in their written order.

Values are immutable and operations pure.
"""

from __future__ import annotations

from .exactalg import Frac, LPoly, ContextMismatch, InversionError, power


class RoleError(ValueError):
    """Edge does not have the role required by the operation."""


class QTElem:
    """Finite sum of E-monomials with fraction coefficients."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph, terms: dict[tuple[int, ...], Frac]):
        self.graph = graph
        self.terms = terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, graph) -> "QTElem":
        return cls(graph, {})

    @classmethod
    def scalar(cls, graph, coeff: Frac) -> "QTElem":
        if coeff.is_zero():
            return cls.zero(graph)
        return cls(graph, {(0,) * len(graph.internal_edges): coeff})

    @classmethod
    def one(cls, graph) -> "QTElem":
        return cls.scalar(graph, Frac.from_int(graph.ctx, 1))

    @classmethod
    def e_monomial(cls, graph, exps: dict[str, int], coeff: Frac | None = None) -> "QTElem":
        if coeff is None:
            coeff = Frac.from_int(graph.ctx, 1)
        if coeff.is_zero():
            return cls.zero(graph)
        return cls(graph, {graph.edge_vector(exps): coeff})

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QTElem):
            return NotImplemented
        return (self - other).is_zero()

    def coefficient(self, exps: dict[str, int]) -> Frac:
        return self.terms.get(self.graph.edge_vector(exps), Frac.from_int(self.graph.ctx, 0))

    # -- ring operations ----------------------------------------------------------

    def _check(self, other: "QTElem"):
        if not self.graph.compatible(other.graph):
            raise ContextMismatch("quantum torus elements over different graphs")

    def __add__(self, other: "QTElem") -> "QTElem":
        self._check(other)
        out = dict(self.terms)
        for k, f in other.terms.items():
            if k in out:
                s = out[k] + f
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = f
        return QTElem(self.graph, out)

    def __neg__(self) -> "QTElem":
        return QTElem(self.graph, {k: -f for k, f in self.terms.items()})

    def __sub__(self, other: "QTElem") -> "QTElem":
        return self + (-other)

    def __mul__(self, other: "QTElem") -> "QTElem":
        self._check(other)
        out: dict[tuple[int, ...], Frac] = {}
        for k, R in self.terms.items():
            for l, S in other.terms.items():
                kl = tuple(a + b for a, b in zip(k, l))
                c = R.shift(l) * S
                if c.is_zero():
                    continue
                if kl in out:
                    s = out[kl] + c
                    if s.is_zero():
                        del out[kl]
                    else:
                        out[kl] = s
                else:
                    out[kl] = c
        return QTElem(self.graph, out)

    def right_mul(self, coeff: Frac) -> "QTElem":
        """Multiply by a pure coefficient on the right (no shift)."""
        if coeff.is_zero():
            return QTElem.zero(self.graph)
        return QTElem(self.graph, {k: f * coeff for k, f in self.terms.items()})

    def mul_int(self, c: int) -> "QTElem":
        if c == 0:
            return QTElem.zero(self.graph)
        return QTElem(self.graph, {k: f.mul_int(c) for k, f in self.terms.items()})

    def mul_a_power(self, k: int) -> "QTElem":
        """Multiply by the central scalar A^k."""
        return QTElem(self.graph, {e: f.mul_monomial({"A": k}) for e, f in self.terms.items()})

    def __pow__(self, n: int) -> "QTElem":
        if n < 0:
            raise ValueError("negative powers of general torus elements")
        return power(self, n, QTElem.one(self.graph))

    def inverse(self) -> "QTElem":
        """Inverse of an invertible element (scalar or single E-monomial)."""
        if len(self.terms) != 1:
            raise InversionError("only single-term torus elements invert")
        (k, f), = self.terms.items()
        mk = tuple(-v for v in k)
        return QTElem(self.graph, {mk: f.shift(mk).inv()})

    # -- printing, serialization -------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        edges = self.graph.internal_edges
        keys = sorted(self.terms)
        if len(keys) == 1 and not any(keys[0]):
            f = self.terms[keys[0]].reduced()
            den = f.den()
            if den == LPoly.const(f.ctx, 1):
                return str(f.num)
            return f"( {f.num} ) / ( {den} )"
        parts = []
        for k in keys:
            f = self.terms[k].reduced()
            den = f.den()
            one = LPoly.const(f.ctx, 1)
            body = f"(( {f.num} ) / ( {den} ))" if den != one else f"( {f.num} )"
            if any(k):
                e_str = ", ".join(f"{edges[i]}:{v}" for i, v in enumerate(k) if v)
                parts.append(f"E[{e_str}] * {body}")
            else:
                parts.append(body)
        return " + ".join(parts)

    def __repr__(self):
        s = str(self)
        return f"QTElem({s if len(s) < 100 else s[:97] + '...'})"

    def to_json(self) -> list[dict]:
        edges = self.graph.internal_edges
        out = []
        for k in sorted(self.terms):
            f = self.terms[k].reduced()
            out.append({
                "exponents": {edges[i]: v for i, v in enumerate(k) if v},
                "num": str(f.num),
                "den": str(f.den()),
            })
        return out


def qt_mul(x: QTElem, y: QTElem) -> QTElem:
    return x * y


def qt_add(x: QTElem, y: QTElem) -> QTElem:
    return x + y


def a_bracket(xy: QTElem, yx: QTElem) -> QTElem:
    """[x, y]_A = A x y - A^{-1} y x, from the two ordered products."""
    return xy.mul_a_power(1) - yx.mul_a_power(-1)


def commutator_A(x: QTElem, y: QTElem) -> QTElem:
    """[x, y]_A = A x y - A^{-1} y x."""
    return a_bracket(x * y, y * x)


def automorphism_tau_c(x: QTElem, c_edge: str, sign: int = 1) -> QTElem:
    """Algebra automorphism fixing Q's and E_f (f != c), E_c -> (-A)^3 E_c Q_c^2.

    On an E-monomial, E_c^k picks up (-A)^{(k+1)^2-1} Q_c^{2k}; the inverse
    substitution E_c -> (-A)^{-3} E_c Q_c^{-2} gives the reciprocal unit.
    """
    graph = x.graph
    if graph.edge_role(c_edge) != "separating":
        raise RoleError(f"{c_edge} is not a separating internal edge")
    ci = graph.edge_index[c_edge]
    qname = graph.var_of_edge(c_edge)
    out: dict[tuple[int, ...], Frac] = {}
    for k, f in x.terms.items():
        kc = k[ci]
        u = (kc + 1) ** 2 - 1 if sign > 0 else -((kc + 1) ** 2 - 1)
        coeff = -1 if u % 2 else 1
        g = f.mul_monomial({"A": u, qname: 2 * kc * sign}, coeff)
        out[k] = g
    return QTElem(graph, out)


def a0_membership(x: QTElem) -> bool:
    """Test membership in the even subalgebra A_0, term by term.

    ``SausageGraph.in_a0`` states A_0: vertex parity, even Q-monomials, and
    denominators that are products of divisors of U(A^n Q_e^2), any n,
    with even cofactors.
    """
    return all(x.graph.in_a0(k, f) for k, f in x.terms.items())
