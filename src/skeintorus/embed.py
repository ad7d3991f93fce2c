"""Images of the generator curves in the localized quantum torus.

A ``SigmaTable`` holds, per catalogued curve, the exact torus element of the
curve operator together with the auxiliary coefficient fractions appearing
in its closed form (the one-cycle F, the two-cycle F_{eps,eps'}, and the
separating-curve G_2 / G_{-2} and their delta / Delta building blocks).  Dehn
twists act on images either through the A-commutator with the encircled
pants curve (geometric intersection one) or through the torus automorphism
attached to a separating edge (intersection two).

``run_identity_suite`` mechanically verifies the closed-form identities the
construction rests on, grouped into suites S1..S11; every check is an exact
equality of torus elements and failures report the full nonzero residual.
Each suite, like every other exact check here, is a generator of (identity
id, result) pairs that ``SuiteReport.collect`` records and times: the loop
body computes a result from its own curve when the recorder asks for the
next pair, so nothing binds a loop value late.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

from .exactalg import Frac, LPoly, u_poly
from .qtorus import QTElem, a_bracket, automorphism_tau_c, a0_membership, commutator_A
from .sausage import CurveId, SausageGraph


class ConfigError(ValueError):
    """The graph does not realize the local configuration a suite needs."""


def _mono(ctx, exps, coeff=1) -> Frac:
    return Frac.from_poly(LPoly.monomial(ctx, exps, coeff))


def _mexp(*pairs) -> dict[str, int]:
    """Accumulate (name, exponent) pairs; repeated names add up."""
    out: dict[str, int] = {}
    for name, k in pairs:
        out[name] = out.get(name, 0) + k
    return out


def _apoly(ctx, *pairs) -> LPoly:
    """Laurent polynomial in A alone: pairs of (coefficient, power)."""
    out = LPoly.zero(ctx)
    for c, k in pairs:
        out = out + LPoly.a_power(ctx, k, c)
    return out


class SigmaTable:
    """Curve images and cached auxiliaries for one sausage graph."""

    def __init__(self, graph: SausageGraph):
        self.graph = graph
        self.catalogue = graph.curve_catalogue()
        self._catalogued = frozenset(self.catalogue.values())
        self.aux: dict[CurveId, dict] = {}
        self._images: dict[CurveId, QTElem] = {}
        # eager: images built on first use would land in sigma-mix's timed requests
        for curve in self.catalogue.values():
            self.image(curve)

    # -- scalars ---------------------------------------------------------------

    def pants_scalar(self, edge: str) -> Frac:
        """-(A^2 Q^2 + A^-2 Q^-2) for the pants curve encircling the edge."""
        q = self.graph.var_of_edge(edge)
        ctx = self.graph.ctx
        return Frac.from_poly(LPoly.monomial(ctx, {"A": 2, q: 2}, -1)
                              + LPoly.monomial(ctx, {"A": -2, q: -2}, -1))

    # -- images ------------------------------------------------------------------

    def image(self, curve: CurveId) -> QTElem:
        """The curve's image, once per table: a catalogued base curve's from
        ``sigma_generator``, a twisted curve's as the image of the longest
        suffix of its word in the table twisted by the rest, rightmost first."""
        word, start, img = curve.twist_word, 0, self._images.get(curve)
        while img is None and start < len(word):
            start += 1
            img = self._images.get(CurveId(curve.kind, curve.edges, word[start:]))
        if img is None:
            base = curve.base()
            if base not in self._catalogued:
                raise KeyError(f"curve {curve} not catalogued on {self.graph!r}")
            img = self._images[base] = sigma_generator(base, self)
        if start:
            for edge, sign in reversed(word[:start]):
                img = twist_image(img, edge, sign, self)
            self._images[curve] = img
        return img

    def with_mutation(self, curve: CurveId) -> "SigmaTable":
        """Copy of the table with A -> A^2 injected into one stored coefficient.

        Only the lowest-exponent coefficient of the stored image mutates; the
        cached auxiliaries stay intact, so identities that merely cancel the
        same coefficient on both sides still pass and genuine closed-form
        checks break.
        """
        clone = copy.copy(self)
        img = self.image(curve.base())
        k0 = min(img.terms)
        terms = dict(img.terms)
        terms[k0] = terms[k0].sub_a_squared()
        # twisted images derived from the mutated base must be recomputed
        clone._images = {c: v for c, v in self._images.items() if not c.twist_word}
        clone._images[curve.base()] = QTElem(img.graph, terms)
        return clone


def sigma_generator(curve: CurveId, t: SigmaTable) -> QTElem:
    """The exact torus image of one catalogued curve (no twist word)."""
    g = t.graph
    ctx = g.ctx

    if curve.kind == "pants":
        return QTElem.scalar(g, t.pants_scalar(curve.edges[0]))

    if curve.kind == "one_cycle":
        e, f = curve.edges
        qe = g.var_of_edge(e)
        qf = g.var_of_edge(f)
        F = Frac.make(u_poly(ctx, {qe: 2, qf: 1}, 2) * u_poly(ctx, {qe: 2, qf: -1}, 0),
                      [u_poly(ctx, {qe: 2}, 2), u_poly(ctx, {qe: 2}, 0)])
        t.aux[curve] = {"F": F}
        return (QTElem.e_monomial(g, {e: 1})
                + QTElem.e_monomial(g, {e: -1}, F))

    if curve.kind == "two_cycle":
        b, c, a, a2 = curve.edges
        qb, qc = g.var_of_edge(b), g.var_of_edge(c)
        qa, qa2 = g.var_of_edge(a), g.var_of_edge(a2)
        f1m1 = -Frac.make(u_poly(ctx, {qa2: 1, qc: 1, qb: -1}) * u_poly(ctx, {qa: 1, qc: 1, qb: -1}),
                          [u_poly(ctx, {qc: 2}, 2), u_poly(ctx, {qc: 2}, 0)])
        fm11 = -Frac.make(u_poly(ctx, {qa2: 1, qb: 1, qc: -1}) * u_poly(ctx, {qa: 1, qb: 1, qc: -1}),
                          [u_poly(ctx, {qb: 2}, 2), u_poly(ctx, {qb: 2}, 0)])
        fm1m1 = Frac.make(u_poly(ctx, {qa2: 1, qc: 1, qb: 1}, 2) * u_poly(ctx, {qa: 1, qc: 1, qb: 1}, 2)
                          * u_poly(ctx, {qb: 1, qc: 1, qa2: -1}) * u_poly(ctx, {qb: 1, qc: 1, qa: -1}),
                          [u_poly(ctx, {qc: 2}, 2), u_poly(ctx, {qc: 2}, 0),
                           u_poly(ctx, {qb: 2}, 2), u_poly(ctx, {qb: 2}, 0)])
        t.aux[curve] = {"F_1_-1": f1m1, "F_-1_1": fm11, "F_-1_-1": fm1m1}
        # leading term is E_b E_c with coefficient 1: it is the unique choice
        # compatible with solving the lift system for E_b E_c.
        return (QTElem.e_monomial(g, {b: 1, c: 1})
                + QTElem.e_monomial(g, {b: 1, c: -1}, f1m1)
                + QTElem.e_monomial(g, {b: -1, c: 1}, fm11)
                + QTElem.e_monomial(g, {b: -1, c: -1}, fm1m1))

    if curve.kind == "separating":
        c, d1, d2, d3, d4 = curve.edges
        qc = g.var_of_edge(c)
        q1, q2, q3, q4 = (g.var_of_edge(d) for d in (d1, d2, d3, d4))
        sc = t.pants_scalar(c)
        sd = [t.pants_scalar(d) for d in (d1, d2, d3, d4)]
        delta1 = sd[0] * sd[2] + sd[1] * sd[3]
        delta2 = sd[0] * sd[1] + sd[2] * sd[3]
        delta3 = sd[0] * sd[3] + sd[1] * sd[2]
        Delta = sd[0] ** 2 + sd[1] ** 2 + sd[2] ** 2 + sd[3] ** 2 + sd[0] * sd[1] * sd[2] * sd[3]
        g2 = -Frac.from_poly(u_poly(ctx, _mexp((q1, 1), (q4, 1), (qc, -1)))
                             * u_poly(ctx, _mexp((q2, 1), (q3, 1), (qc, -1))))
        g0 = (delta1 * sc + delta2 * Frac.from_poly(_apoly(ctx, (1, 2), (1, -2)))) \
            * Frac.make(LPoly.const(ctx, 1), [u_poly(ctx, {qc: 2}, 0), u_poly(ctx, {qc: 2}, 4)])
        gm2_num = (u_poly(ctx, _mexp((q1, 1), (q4, 1), (qc, 1)), 2)
                   * u_poly(ctx, _mexp((q1, 1), (qc, 1), (q4, -1)))
                   * u_poly(ctx, _mexp((q4, 1), (qc, 1), (q1, -1)))
                   * u_poly(ctx, _mexp((q2, 1), (q3, 1), (qc, 1)), 2)
                   * u_poly(ctx, _mexp((q2, 1), (qc, 1), (q3, -1)))
                   * u_poly(ctx, _mexp((q3, 1), (qc, 1), (q2, -1))))
        gm2 = -Frac.make(gm2_num, [u_poly(ctx, {qc: 2}, -2), u_poly(ctx, {qc: 2}, 0),
                                   u_poly(ctx, {qc: 2}, 0), u_poly(ctx, {qc: 2}, 2)])
        t.aux[curve] = {"G2": g2, "Gm2": gm2, "delta1": delta1, "delta2": delta2,
                        "delta3": delta3, "Delta": Delta}
        return (QTElem.e_monomial(g, {c: 2}, g2)
                + QTElem.scalar(g, g0)
                + QTElem.e_monomial(g, {c: -2}, gm2))

    if curve.kind == "tau":
        # solved out of  A^2 c gamma - A^-2 gamma c =
        # (A^4 - A^-4) tau + (A^2 - A^-2)(d1 d3 + d2 d4); the tests check it
        # against the second exchange relation of the README's Conventions
        sep = CurveId("separating", curve.edges)
        gamma = t.image(sep)
        c_img = t.image(CurveId("pants", curve.edges[:1]))
        delta1 = t.aux[sep]["delta1"]
        rel = ((c_img * gamma).mul_a_power(2) - (gamma * c_img).mul_a_power(-2)
               - QTElem.scalar(g, delta1 * Frac.from_poly(_apoly(ctx, (1, 2), (-1, -2)))))
        return rel.right_mul(Frac.make(LPoly.const(ctx, 1), [_apoly(ctx, (1, 4), (-1, -4))]))

    if curve.kind == "tau_bar":
        return automorphism_tau_c(t.image(CurveId("tau", curve.edges)), curve.edges[0], -1)

    raise ValueError(f"sigma_generator does not handle kind {curve.kind!r}")


def twist_image(x: QTElem, edge: str, sign: int, t: SigmaTable) -> QTElem:
    """Image of the curve after a full Dehn twist along the pants curve at edge.

    The geometric intersection with that pants curve is read off the largest
    |E-exponent| of x along the edge.  Intersection one uses the A-commutator
    with the pants-curve image; intersection two along a separating edge uses
    the torus automorphism.  Disjoint curves are untouched.
    """
    g = x.graph
    ei = g.edge_index.get(edge)
    if ei is None:
        return x
    intersection = max((abs(k[ei]) for k in x.terms), default=0)
    if intersection == 0:
        return x
    if intersection == 1:
        e_img = t.image(CurveId("pants", (edge,)))
        num = commutator_A(e_img, x) if sign > 0 else commutator_A(x, e_img)
        scale = Frac.make(LPoly.const(g.ctx, 1), [_apoly(g.ctx, (1, 2), (-1, -2))])
        return num.right_mul(scale)
    if intersection == 2 and g.edge_role(edge) == "separating":
        return automorphism_tau_c(x, edge, sign)
    raise ValueError(f"unsupported intersection pattern i={intersection} at {edge}")


def scaled_twist(x: QTElem, edge: str, sign: int) -> QTElem:
    """Twist by rescaling extremal coefficients: F_k -> -A^{2e+|k_j|} Q_j^{2e}.

    Only valid when every term of x is extremal along the twisted edge
    (|k_j| equal to the geometric intersection number, which must be 1).
    Serves as the route independent from the commutator computation.
    """
    g = x.graph
    ei = g.edge_index[edge]
    q = g.var_of_edge(edge)
    out = {}
    for k, F in x.terms.items():
        eps = 1 if k[ei] > 0 else -1
        if abs(k[ei]) != 1:
            raise ValueError("scaled_twist needs |k_j| = 1 on every term")
        if sign > 0:
            out[k] = F.mul_monomial({"A": 2 * eps + 1, q: 2 * eps}, -1)
        else:
            out[k] = F.mul_monomial({"A": -2 * eps - 1, q: -2 * eps}, -1)
    return QTElem(g, out)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

@dataclass
class IdentityResult:
    id: str
    passed: bool
    residual: QTElem | None = None

    def to_json(self):
        return {"id": self.id, "pass": self.passed,
                "residual_terms": self.residual.to_json() if self.residual is not None else []}


@dataclass
class SuiteReport:
    suite: str
    genus: int
    closed: bool
    identities: list[IdentityResult] = field(default_factory=list)
    wall_time_ms: int = 0

    @classmethod
    def collect(cls, suite: str, graph: SausageGraph, results) -> "SuiteReport":
        """Record (id, result) pairs, each computed as it is asked for, and the
        time they take.  A residual passes when it is zero and is kept when it
        fails; a bool is the verdict itself."""
        report = cls(suite, graph.genus, graph.closed)
        t0 = time.monotonic()
        for ident, result in results:
            if isinstance(result, bool):
                ok, residual = result, None
            else:
                ok = result.is_zero()
                residual = None if ok else result
            report.identities.append(IdentityResult(ident, ok, residual))
        report.wall_time_ms = int(1000 * (time.monotonic() - t0))
        return report

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.identities)

    def to_json(self):
        return {"suite": self.suite, "genus": self.genus, "closed": self.closed,
                "identities": [r.to_json() for r in self.identities],
                "wall_time_ms": self.wall_time_ms}


def expand_support_check(t: SigmaTable) -> SuiteReport:
    """Support bound, parity and extremal non-vanishing for every image."""
    return SuiteReport.collect("support", t.graph, _support_checks(t))


def _support_checks(t: SigmaTable):
    g = t.graph
    idx = g.edge_index
    for name, curve in t.catalogue.items():
        img = t.image(curve)
        ivec = g.intersection_vector(curve)
        yield f"support_parity[{name}]", QTElem(g, {
            k: F for k, F in img.terms.items()
            if not all(abs(k[idx[e]]) <= ivec[e] and (k[idx[e]] - ivec[e]) % 2 == 0
                       for e in g.internal_edges)})
        corners = [()]
        traversed = [e for e in g.internal_edges if ivec[e]]
        for e in traversed:
            corners = [c + (s * ivec[e],) for c in corners for s in (1, -1)]
        yield f"extremal_nonzero[{name}]", all(
            g.edge_vector(dict(zip(traversed, corner))) in img.terms for corner in corners)
        yield f"membership[{name}]", a0_membership(img)


def fracdehn_check(curve: CurveId, t: SigmaTable) -> SuiteReport:
    """Compare commutator twists against the extremal-coefficient rescaling."""
    if curve.kind not in ("one_cycle", "two_cycle"):
        raise ValueError("fractional-twist scaling check applies to one/two-cycles")
    return SuiteReport.collect("fracdehn", t.graph, _twist_scalings(curve, t))


def _traversed(curve: CurveId) -> tuple[str, ...]:
    """The edges a one- or two-cycle curve crosses once."""
    return curve.edges[:1] if curve.kind == "one_cycle" else curve.edges[:2]


def _twist_scalings(curve: CurveId, t: SigmaTable):
    img = t.image(curve)
    for e in _traversed(curve):
        for sign, tag in ((1, "+"), (-1, "-")):
            yield (f"twist_scaling[{curve.kind}:{e}:{tag}]",
                   t.image(curve.twisted(e, sign)) - scaled_twist(img, e, sign))


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def _curves_of_kind(t: SigmaTable, kind: str) -> list[tuple[str, CurveId]]:
    return [(n, c) for n, c in t.catalogue.items() if c.kind == kind]


def _suite_s1(t: SigmaTable):
    g = t.graph
    ctx = g.ctx
    for e in g.internal_edges:
        q = QTElem.scalar(g, _mono(ctx, {g.var_of_edge(e): 1}))
        E = QTElem.e_monomial(g, {e: 1})
        yield f"qe_commutation[{e}]", q * E - (E * q).mul_a_power(1)
    for name, curve in _curves_of_kind(t, "pants"):
        yield (f"pants_form[{name}]",
               t.image(curve) - QTElem.scalar(g, t.pants_scalar(curve.edges[0])))


def _one_cycle_lift_parts(t: SigmaTable, curve: CurveId):
    g = t.graph
    ctx = g.ctx
    e, f = curve.edges
    qe = g.var_of_edge(e)
    gamma = t.image(curve)
    te = t.image(curve.twisted(e, 1))
    F = t.aux[curve]["F"]
    inv_u = Frac.make(LPoly.const(ctx, 1), [u_poly(ctx, {qe: 2}, 2)])
    return e, qe, gamma, te, F, inv_u


def _suite_s2(t: SigmaTable):
    g = t.graph
    ctx = g.ctx
    for name, curve in _curves_of_kind(t, "one_cycle"):
        e, qe, gamma, te, F, inv_u = _one_cycle_lift_parts(t, curve)
        w = Frac.from_poly(LPoly.a_power(ctx, -1)) * inv_u
        rhs = (te + gamma.right_mul(_mono(ctx, {"A": -1, qe: -2}))).right_mul(w).mul_int(-1)
        yield f"lift_E[{name}]", QTElem.e_monomial(g, {e: 1}) - rhs
        rhs = (gamma.right_mul(_mono(ctx, {"A": 3, qe: 2})) + te).right_mul(w * F.inv())
        yield f"lift_Einv[{name}]", QTElem.e_monomial(g, {e: -1}) - rhs


def _suite_s3(t: SigmaTable):
    g = t.graph
    ctx = g.ctx
    for name, curve in _curves_of_kind(t, "one_cycle"):
        e, qe, gamma, te, F, _ = _one_cycle_lift_parts(t, curve)
        lhs = (te + gamma.right_mul(_mono(ctx, {"A": -1, qe: -2}))) \
            * (gamma.right_mul(_mono(ctx, {"A": 3, qe: 2})) + te)
        inner = (_mono(ctx, {"A": 2, qe: 4}) + _mono(ctx, {"A": -2, qe: -4})
                 + t.pants_scalar(curve.edges[1]))
        yield f"product_identity[{name}]", lhs + QTElem.scalar(g, inner).mul_a_power(2)


def _two_cycle_brackets(t: SigmaTable, curve: CurveId):
    """The four lift numerators B_{eps1,eps2} built from twisted images."""
    g = t.graph
    ctx = g.ctx
    b, c, a, a2 = curve.edges
    qb, qc = g.var_of_edge(b), g.var_of_edge(c)
    gamma = t.image(curve)
    tb = t.image(curve.twisted(b, 1))
    tc = t.image(curve.twisted(c, 1))
    tbc = t.image(curve.twisted(c, 1).twisted(b, 1))
    B = {}
    B[(1, 1)] = (gamma.right_mul(_mono(ctx, {"A": -2, qb: -2, qc: -2}))
                 + tb.right_mul(_mono(ctx, {"A": -1, qc: -2}))
                 + tc.right_mul(_mono(ctx, {"A": -1, qb: -2})) + tbc)
    B[(1, -1)] = (gamma.right_mul(_mono(ctx, {"A": 2, qb: -2, qc: 2}))
                  + tb.right_mul(_mono(ctx, {"A": 3, qc: 2}))
                  + tc.right_mul(_mono(ctx, {"A": -1, qb: -2})) + tbc)
    B[(-1, 1)] = (gamma.right_mul(_mono(ctx, {"A": 2, qb: 2, qc: -2}))
                  + tb.right_mul(_mono(ctx, {"A": -1, qc: -2}))
                  + tc.right_mul(_mono(ctx, {"A": 3, qb: 2})) + tbc)
    B[(-1, -1)] = (gamma.right_mul(_mono(ctx, {"A": 6, qb: 2, qc: 2}))
                   + tb.right_mul(_mono(ctx, {"A": 3, qc: 2}))
                   + tc.right_mul(_mono(ctx, {"A": 3, qb: 2})) + tbc)
    d_inv = Frac.make(LPoly.a_power(ctx, -2),
                      [u_poly(ctx, {qc: 2}, 2), u_poly(ctx, {qb: 2}, 2)])
    return B, d_inv


def _suite_s4(t: SigmaTable):
    g = t.graph
    for name, curve in _curves_of_kind(t, "two_cycle"):
        b, c, _, _ = curve.edges
        B, d_inv = _two_cycle_brackets(t, curve)
        aux = t.aux[curve]
        lhs = {
            (1, 1): QTElem.e_monomial(g, {b: 1, c: 1}),
            (1, -1): QTElem.e_monomial(g, {b: 1, c: -1}, aux["F_1_-1"]),
            (-1, 1): QTElem.e_monomial(g, {b: -1, c: 1}, aux["F_-1_1"]),
            (-1, -1): QTElem.e_monomial(g, {b: -1, c: -1}, aux["F_-1_-1"]),
        }
        signs = {(1, 1): 1, (1, -1): -1, (-1, 1): -1, (-1, -1): 1}
        for eps, s in signs.items():
            yield (f"lift_E[{name}:{eps[0]},{eps[1]}]",
                   lhs[eps] - B[eps].right_mul(d_inv).mul_int(s))


def _suite_s5(t: SigmaTable):
    """The X-product and X-commutation identities of each two-cycle curve."""
    g = t.graph
    ctx = g.ctx
    for name, curve in _curves_of_kind(t, "two_cycle"):
        b, c, a, a2 = curve.edges
        qb, qc = g.var_of_edge(b), g.var_of_edge(c)
        B, _ = _two_cycle_brackets(t, curve)
        X = {(1, 1): B[(1, 1)], (1, -1): -B[(1, -1)],
             (-1, 1): -B[(-1, 1)], (-1, -1): B[(-1, -1)]}
        for eps in (1, -1):
            lhs = X[(1, eps)] * X[(-1, -eps)]
            quad = (_mono(ctx, {"A": 2 * eps, qb: 2, qc: 2 * eps})
                    + _mono(ctx, {"A": -2 * eps, qb: -2, qc: -2 * eps}))
            rhs = ((quad + t.pants_scalar(a)) * (quad + t.pants_scalar(a2))) \
                .mul_monomial({"A": 4})
            yield f"x_product[{name}:eps={eps}]", lhs - QTElem.scalar(g, rhs)
        yield (f"x_commutation[{name}]",
               X[(1, 1)] * X[(1, -1)] - X[(1, -1)] * X[(1, 1)])


def _sep_parts(t: SigmaTable, curve: CurveId):
    g = t.graph
    c = curve.edges[0]
    qc = g.var_of_edge(c)
    gamma = t.image(curve)
    tau = t.image(CurveId("tau", curve.edges))
    aux = t.aux[curve]
    return c, qc, gamma, tau, aux


def _suite_s6(t: SigmaTable):
    g = t.graph
    ctx = g.ctx
    for name, curve in _curves_of_kind(t, "separating"):
        c, qc, _, _, aux = _sep_parts(t, curve)
        y2, ym2 = _y_pair(t, curve)
        inv_u2 = Frac.make(LPoly.const(ctx, 1), [u_poly(ctx, {qc: 2}, 2)])
        yield (f"sep_lift_plus[{name}]", QTElem.e_monomial(g, {c: 2}, aux["G2"])
               - y2.right_mul(Frac.from_poly(LPoly.a_power(ctx, -2)) * inv_u2))
        yield (f"sep_lift_minus[{name}]",
               QTElem.e_monomial(g, {c: -2}, aux["Gm2"]) - ym2.right_mul(inv_u2))


def _y_pair(t: SigmaTable, curve: CurveId):
    g = t.graph
    ctx = g.ctx
    c, qc, gamma, tau, aux = _sep_parts(t, curve)
    d1, d2 = aux["delta1"], aux["delta2"]
    corr1 = (d1.mul_monomial({"A": -2, qc: -2}) - d2.mul_monomial({"A": 2})) \
        * Frac.make(LPoly.const(ctx, 1), [u_poly(ctx, {qc: 2}, 4)])
    y2 = (gamma.right_mul(_mono(ctx, {qc: -2})) + tau - QTElem.scalar(g, corr1)).mul_int(-1)
    corr2 = (d1.mul_monomial({qc: 2}) - d2) * Frac.make(LPoly.const(ctx, 1),
                                                        [u_poly(ctx, {qc: 2}, 0)])
    ym2 = (gamma.right_mul(_mono(ctx, {"A": 2, qc: 2})) + tau.mul_a_power(-2)
           + QTElem.scalar(g, corr2))
    return y2, ym2


def _sep_rhs_poly(t: SigmaTable, curve: CurveId) -> Frac:
    """A^2 (-T^4 + d3 T^3 + (8-Delta) T^2 + (d1 d2 - 4 d3) T + 4 Delta - 16
    - d1^2 - d2^2) / U(Q_c^2)^2."""
    g = t.graph
    ctx = g.ctx
    c = curve.edges[0]
    qc = g.var_of_edge(c)
    aux = t.aux[curve]
    d1, d2, d3, Delta = aux["delta1"], aux["delta2"], aux["delta3"], aux["Delta"]
    T = _mono(ctx, {qc: 2}) + _mono(ctx, {qc: -2})
    four = Frac.from_int(ctx, 4)
    poly = (-(T ** 4) + d3 * T ** 3 + (Frac.from_int(ctx, 8) - Delta) * T ** 2
            + (d1 * d2 - d3 * four) * T
            + Delta * four - Frac.from_int(ctx, 16) - d1 ** 2 - d2 ** 2)
    return poly.mul_monomial({"A": 2}) * Frac.make(
        LPoly.const(ctx, 1), [u_poly(ctx, {qc: 2}, 0), u_poly(ctx, {qc: 2}, 0)])


def _suite_s7(t: SigmaTable):
    g = t.graph
    ctx = g.ctx
    for name, curve in _curves_of_kind(t, "separating"):
        c, qc, _, _, aux = _sep_parts(t, curve)
        # A^2 U(A^-2 Qc^2) G2hat U(A^2 Qc^2) Gm2 == -(closed form)
        g2hat = aux["G2"].shift(g.edge_vector({c: -2}))
        lhs = (Frac.from_poly(u_poly(ctx, {qc: 2}, -2)) * g2hat
               * Frac.from_poly(u_poly(ctx, {qc: 2}, 2)) * aux["Gm2"]).mul_monomial({"A": 2})
        rhs = _sep_rhs_poly(t, curve)
        yield f"g2hat_gm2_closed_form[{name}]", QTElem.scalar(g, lhs + rhs)
        y2, ym2 = _y_pair(t, curve)
        yield f"y2_ym2_product[{name}]", (y2 * ym2).mul_int(-1) - QTElem.scalar(g, rhs)
        T = _mono(ctx, {qc: 2}) + _mono(ctx, {qc: -2})
        lhs = Frac.from_poly(u_poly(ctx, {qc: 2}, 0)) ** 2
        yield f"u_square[{name}]", QTElem.scalar(g, lhs - (T * T - Frac.from_int(ctx, 4)))


def _suite_s8(t: SigmaTable):
    g = t.graph
    ctx = g.ctx
    for name, curve in _curves_of_kind(t, "separating"):
        c, qc, gamma, tau, aux = _sep_parts(t, curve)
        c_img = t.image(CurveId("pants", (c,)))
        d1, d2, d3, Delta = aux["delta1"], aux["delta2"], aux["delta3"], aux["Delta"]
        phi = ((gamma * tau) - c_img.mul_a_power(2) - QTElem.scalar(g, d3)).mul_a_power(2)
        bad = QTElem.zero(g)
        ci = g.edge_index[c]
        for k, F in phi.terms.items():
            if abs(k[ci]) > 4 or k[ci] % 2 or any(k[i] for i in range(len(k)) if i != ci):
                bad = bad + QTElem(g, {k: F})
        if not a0_membership(phi):
            bad = bad + phi
        yield f"gamma_tau_support[{name}]", bad
        aa = Frac.from_poly(_apoly(ctx, (1, 2), (1, -2)))
        rhs = (QTElem.scalar(g, Delta - aa * aa)
               + (gamma * gamma).mul_a_power(4)
               + (QTElem.scalar(g, d2) * gamma).mul_a_power(2)
               + (QTElem.scalar(g, d1) * tau).mul_a_power(-2)
               + (tau * tau).mul_a_power(-4))
        yield f"phi_c_expansion[{name}]", phi * c_img - rhs


def _psi_phi(t: SigmaTable, curve: CurveId):
    c = curve.edges[0]
    gamma = t.image(curve)
    tau = t.image(CurveId("tau", curve.edges))
    taubar = t.image(CurveId("tau_bar", curve.edges))
    phi = gamma - automorphism_tau_c(gamma, c)
    psi = taubar - tau
    return phi, psi


def _shared_commutator():
    """commutator_A that forms each ordered product x * y once, so xy and yx
    serve both [x, y]_A and [y, x]_A.  A product is kept with its operands,
    whose ids key it: no id is reused while the cache lives."""
    products: dict[tuple[int, int], tuple[QTElem, QTElem, QTElem]] = {}

    def mul(x: QTElem, y: QTElem) -> QTElem:
        key = (id(x), id(y))
        if key not in products:
            products[key] = (x, y, x * y)
        return products[key][2]

    return lambda x, y: a_bracket(mul(x, y), mul(y, x))


def _partners(g: SausageGraph, kind: str) -> list[tuple[str, CurveId, CurveId]]:
    """(name, separating curve, partner) where the partner, of the kind, crosses
    the curve's d1, d4 once: the loop d1 = d4 for S9, the handle {d1, d4} for S10."""
    catalogue = g.curve_catalogue()
    return [(name, curve, partner) for name, curve in catalogue.items()
            if curve.kind == "separating" for partner in catalogue.values()
            if partner.kind == kind and set(_traversed(partner)) == set(curve.edges[1:5:3])]


def _suite_s9(t: SigmaTable):
    for name, curve, loop in _partners(t.graph, "one_cycle"):
        c, e = curve.edges[:2]
        phi, psi = _psi_phi(t, curve)
        beta, teb = t.image(loop), t.image(loop.twisted(e, 1))
        e_img = t.image(CurveId("pants", (e,)))
        c_img = t.image(CurveId("pants", (c,)))
        comm = _shared_commutator()
        yield f"C1[{name}]", (-comm(teb, psi).mul_a_power(5) - comm(phi, teb).mul_a_power(3)
                              + (comm(phi, beta) * e_img).mul_a_power(4))
        yield f"C2[{name}]", (comm(teb, phi).mul_a_power(1)
                              - (comm(teb, psi) * c_img).mul_a_power(3)
                              - comm(psi, teb).mul_a_power(3)
                              + (comm(psi, beta) * e_img).mul_a_power(4))
        yield f"C3[{name}]", (-comm(beta, psi).mul_a_power(4)
                              - (comm(phi, teb) * e_img).mul_a_power(1)
                              + (comm(phi, beta) * e_img * e_img).mul_a_power(2)
                              - comm(phi, beta).mul_a_power(2))
        yield f"C4[{name}]", (comm(beta, phi) - (comm(beta, psi) * c_img).mul_a_power(2)
                              - (comm(psi, teb) * e_img).mul_a_power(1)
                              + (comm(psi, beta) * e_img * e_img).mul_a_power(2)
                              - comm(psi, beta).mul_a_power(2))


def _suite_s10(t: SigmaTable):
    for name, curve, handle in _partners(t.graph, "two_cycle"):
        yield from _s10_identities(t, name, curve, handle)


def _s10_identities(t: SigmaTable, name: str, curve: CurveId, handle: CurveId):
    """The C and D identities at one separating curve, beta being the
    two-cycle curve of the handle next to it."""
    c, d1, _d2, _d3, d4 = curve.edges
    phi, psi = _psi_phi(t, curve)
    beta = t.image(handle)
    t1 = t.image(handle.twisted(d1, 1))
    t4 = t.image(handle.twisted(d4, 1))
    t14 = t.image(handle.twisted(d1, 1).twisted(d4, 1))
    c_img, s1, s4 = (t.image(CurveId("pants", (e,))) for e in (c, d1, d4))
    comm = _shared_commutator()

    C = {
        (1, 1, 1): lambda: -comm(t14, psi).mul_a_power(5) + comm(phi, beta).mul_a_power(5),
        (1, 1, 0): lambda: (comm(psi, beta).mul_a_power(5)
                            - (comm(t14, psi) * c_img).mul_a_power(3)
                            + comm(t14, phi).mul_a_power(1)),
        (1, 0, 1): lambda: (-comm(phi, t4).mul_a_power(2)
                            + (comm(phi, beta) * s4).mul_a_power(3)
                            - comm(t1, psi).mul_a_power(4)),
        (0, 1, 1): lambda: (-comm(phi, t1).mul_a_power(2)
                            + (comm(phi, beta) * s1).mul_a_power(3)
                            - comm(t4, psi).mul_a_power(4)),
        (0, 0, 1): lambda: (-comm(beta, psi).mul_a_power(3)
                            - comm(phi, t1) * s4
                            + (comm(phi, beta) * s1 * s4).mul_a_power(1)
                            + comm(phi, t14).mul_a_power(-1)
                            - comm(phi, t4) * s1),
        (0, 1, 0): lambda: ((comm(psi, beta) * s1).mul_a_power(3)
                            + comm(t4, phi)
                            - (comm(t4, psi) * c_img).mul_a_power(2)
                            - comm(psi, t1).mul_a_power(2)),
        (1, 0, 0): lambda: (-(comm(t1, psi) * c_img).mul_a_power(2)
                            + comm(t1, phi)
                            - comm(psi, t4).mul_a_power(2)
                            + (comm(psi, beta) * s4).mul_a_power(3)),
        (0, 0, 0): lambda: (-comm(psi, t4) * s1
                            + comm(psi, t14).mul_a_power(-1)
                            + comm(beta, phi).mul_a_power(-1)
                            - (comm(beta, psi) * c_img).mul_a_power(1)
                            + (comm(psi, beta) * s1 * s4).mul_a_power(1)
                            - comm(psi, t1) * s4),
    }
    D = {
        (1, 1, 1): lambda: ((comm(phi, beta) * s4).mul_a_power(5)
                            - comm(t1, psi).mul_a_power(6)
                            - comm(phi, t4).mul_a_power(4)),
        (1, 1, 0): lambda: ((comm(psi, beta) * s4).mul_a_power(5)
                            + comm(t1, phi).mul_a_power(2)
                            - (comm(t1, psi) * c_img).mul_a_power(4)
                            - comm(psi, t4).mul_a_power(4)),
        (1, 0, 1): lambda: comm(phi, beta).mul_a_power(3) - comm(t14, psi).mul_a_power(3),
        (0, 1, 1): lambda: (-(comm(phi, t1) * s4).mul_a_power(2)
                            + (comm(phi, beta) * s1 * s4).mul_a_power(3)
                            - comm(beta, psi).mul_a_power(5)
                            + comm(phi, t14).mul_a_power(1)
                            - (comm(phi, t4) * s1).mul_a_power(2)),
        (0, 0, 1): lambda: (-comm(phi, t1) + (comm(phi, beta) * s1).mul_a_power(1)
                            - comm(t4, psi).mul_a_power(2)),
        (0, 1, 0): lambda: (-(comm(psi, t1) * s4).mul_a_power(2)
                            - (comm(beta, psi) * c_img).mul_a_power(3)
                            + comm(beta, phi).mul_a_power(1)
                            + (comm(psi, beta) * s1 * s4).mul_a_power(3)
                            + comm(psi, t14).mul_a_power(1)
                            - (comm(psi, t4) * s1).mul_a_power(2)),
        (1, 0, 0): lambda: (comm(psi, beta).mul_a_power(3)
                            + comm(t14, phi).mul_a_power(-1)
                            - (comm(t14, psi) * c_img).mul_a_power(1)),
        (0, 0, 0): lambda: ((comm(psi, beta) * s1).mul_a_power(1)
                            - comm(psi, t1)
                            - comm(t4, psi) * c_img
                            + comm(t4, phi).mul_a_power(-2)),
    }
    scaling = {
        (1, 1, 1): ((1, 0, 1), 2), (1, 1, 0): ((1, 0, 0), 2),
        (1, 0, 1): ((1, 1, 1), -2), (0, 1, 1): ((0, 0, 1), 2),
        (0, 0, 1): ((0, 1, 1), -2), (0, 1, 0): ((0, 0, 0), 2),
        (1, 0, 0): ((1, 1, 0), -2), (0, 0, 0): ((0, 1, 0), -2),
    }
    c_val: dict[tuple, QTElem] = {}
    for eps in sorted(C):
        c_val[eps] = C[eps]()
        yield f"C{eps}[{name}]", c_val[eps]
    for eps in sorted(D):
        ceps, power = scaling[eps]
        yield f"D{eps}[{name}]", D[eps]() - c_val[ceps].mul_a_power(power)


def _suite_s11(t: SigmaTable):
    g = t.graph
    for name, curve in (_curves_of_kind(t, "one_cycle") + _curves_of_kind(t, "two_cycle")):
        img = t.image(curve)
        for e in _traversed(curve):
            alpha = t.image(CurveId("pants", (e,)))
            tp = scaled_twist(img, e, 1)
            tm = scaled_twist(img, e, -1)
            yield (f"intersection_one[{name}:{e}]",
                   alpha * img - tp.mul_a_power(1) - tm.mul_a_power(-1))
    for name, curve in _curves_of_kind(t, "separating"):
        c = curve.edges[0]
        gamma = t.image(curve)
        taubar = t.image(CurveId("tau_bar", curve.edges))
        c_img = t.image(CurveId("pants", (c,)))
        delta2 = t.aux[curve]["delta2"]
        rhs = (automorphism_tau_c(gamma, c, -1).mul_a_power(2)
               + QTElem.scalar(g, delta2) + gamma.mul_a_power(-2))
        yield f"taubar_c[{name}]", taubar * c_img - rhs


# suite -> (builder, realizability on the graph, kind of the curve whose
# stored image --mutate corrupts)
_SUITES = {
    "S1": (_suite_s1, lambda g: True, "pants"),
    "S2": (_suite_s2, lambda g: True, "one_cycle"),
    "S3": (_suite_s3, lambda g: True, "one_cycle"),
    "S4": (_suite_s4, lambda g: bool(g.handles), "two_cycle"),
    "S5": (_suite_s5, lambda g: bool(g.handles), "two_cycle"),
    "S6": (_suite_s6, lambda g: bool(g.seps), "separating"),
    "S7": (_suite_s7, lambda g: bool(g.seps), "separating"),
    "S8": (_suite_s8, lambda g: bool(g.seps), "separating"),
    "S9": (_suite_s9, lambda g: bool(_partners(g, "one_cycle")), "one_cycle"),
    "S10": (_suite_s10, lambda g: bool(_partners(g, "two_cycle")), "two_cycle"),
    # the intersection-one items rescale a curve's own coefficients on both
    # sides, so the probe must hit the separating family used by taubar_c
    "S11": (_suite_s11, lambda g: True, "separating"),
}


def suite_ids() -> list[str]:
    return sorted(_SUITES, key=lambda s: int(s[1:]))


def suite_supported(suite: str, graph: SausageGraph, mutate: bool = False) -> bool:
    """Whether ``run_identity_suite`` runs the suite on the graph."""
    try:
        check_suite(suite, graph, mutate)
    except ConfigError:
        return False
    return True


def check_suite(suite: str, graph: SausageGraph, mutate: bool = False) -> CurveId | None:
    """Refuse, with a ConfigError, a suite the graph does not realize and, with
    mutate, one whose probe kind has no curve on the graph; else return the
    curve whose stored image --mutate corrupts (None without mutate).  An
    unknown suite raises KeyError."""
    if suite not in _SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    _builder, requirement, kind = _SUITES[suite]
    if not requirement(graph):
        raise ConfigError(f"suite {suite} is not realizable at genus {graph.genus} "
                          f"({'closed' if graph.closed else 'one boundary'})")
    if not mutate:
        return None
    target = next((c for c in graph.curve_catalogue().values() if c.kind == kind), None)
    if target is None:
        raise ConfigError(f"mutation probe needs a {kind} curve on this graph")
    return target


def run_identity_suite(suite: str, graph: SausageGraph, mutate: bool = False,
                       table: SigmaTable | None = None) -> SuiteReport:
    """Run one identity suite; exact equalities, full residual on failure.  A
    suite ``check_suite`` refuses is refused before any table is built."""
    target = check_suite(suite, graph, mutate)
    if table is None:
        table = SigmaTable(graph)
    if target is not None:
        table = table.with_mutation(target)
    return SuiteReport.collect(suite, graph, _SUITES[suite][0](table))
