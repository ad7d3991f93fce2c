"""Irreducible representations at a 2p-th root of unity (p odd).

Every internal edge carries one p-dimensional tensor factor on which the
Q operator acts as x_e times the (-A)-clock and the E operator as y_e times
the cyclic shift; the boundary variable (and the central tail variable) act
by one shared scalar.  This per-edge construction represents the even
subalgebra because the integer pairing between its E-exponent lattice and
its Q-monomial lattice is even, so all clock/shift sign corrections cancel
there (a fact the sausage tests pin down separately).

Matrices are stored in shift-diagonal form: a map from a per-edge cyclic
shift vector to the vector of diagonal entries, exact cyclotomic scalars
throughout.  Everything stays sparse: images of curve operators touch only
a handful of shifts and Chebyshev recursions preserve that structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cache, partial
from math import lcm, prod
from operator import add, mul, sub

from .exactalg import (Cyclo, CycloField, LPoly, eval_frac, parse_cyclo_scalar, power,
                       term_values)
from .qtorus import QTElem, a0_membership
from .sausage import CurveId, SausageGraph
# twist_image is not called here: repbuild re-exports it, and the benchmark's
# tracer (bench/spans.py) patches it in every module that holds it
from .embed import SigmaTable, SuiteReport, twist_image  # noqa: F401


class MembershipError(ValueError):
    """Element lies outside the even subalgebra; the action is undefined."""


class GenericityError(ValueError):
    """Shadow parameters violate a genericity condition."""


class ReducibleError(ValueError):
    """The intertwiner equations split into more than one component (should not occur)."""


class DimensionError(ValueError):
    """The representation would have more than MAX_DIM basis vectors."""


# Largest p^(internal edges) that build_rep accepts, checked before the basis
# is built.  With `rep --checks shadows` on a 2-vCPU x86 host, dimension 2401
# (p = 7, one-boundary genus 2) took 9.4 s and 87 MB, 1331 (p = 11, closed
# genus 2) 24 s and 122 MB, and 625 (p = 5, one-boundary genus 2) 0.6 s: the
# cost grows with p faster than with the dimension.
MAX_DIM = 2500


# ---------------------------------------------------------------------------
# shift-diagonal matrices
# ---------------------------------------------------------------------------

class CMatrix:
    """Exact matrix over a cyclotomic field, in shift-diagonal form.

    ``parts`` maps a shift vector s (tuple mod p, one slot per edge) to the
    list of diagonal entries d, representing  sum_j d[j] |j+s><j|  in the
    tensor basis indexed by exponent tuples j.
    """

    __slots__ = ("space", "parts")

    def __init__(self, space: "RepSpace", parts: dict[tuple[int, ...], list[Cyclo]]):
        self.space = space
        self.parts = parts

    @classmethod
    def zero(cls, space) -> "CMatrix":
        return cls(space, {})

    @classmethod
    def identity(cls, space) -> "CMatrix":
        one = space.field.one
        return cls(space, {space.zero_shift: [one] * space.dim})

    @classmethod
    def scalar(cls, space, value: Cyclo) -> "CMatrix":
        if value.is_zero():
            return cls.zero(space)
        return cls(space, {space.zero_shift: [value] * space.dim})

    def is_zero(self) -> bool:
        return not self.parts

    def _combine(self, other: "CMatrix", op) -> "CMatrix":
        """Entrywise self op other (op is add or sub), in one pass over other's parts."""
        out = {k: list(v) for k, v in self.parts.items()}
        for k, v in other.parts.items():
            row = out.get(k)
            if row is None:
                out[k] = list(v) if op is add else [-c for c in v]
                continue
            for i, c in enumerate(v):
                row[i] = op(row[i], c)
            if not any(row):
                del out[k]
        return CMatrix(self.space, out)

    def __add__(self, other: "CMatrix") -> "CMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        return self._combine(other, sub)

    def __mul__(self, other: "CMatrix") -> "CMatrix":
        (d1, left), (d2, right) = self.columns(), other.columns()
        return CMatrix.from_columns(self.space, _product(self.space, left, right), d1 * d2)

    def columns(self) -> tuple[int, dict]:
        """(D, parts as the integer columns of ``CycloField.columns`` over D), D
        the lcm of the entries' denominators."""
        field = self.space.field
        den = lcm(*(c.den for d in self.parts.values() for c in d))
        return den, {s: field.columns(d, den) for s, d in self.parts.items()}

    @classmethod
    def from_columns(cls, space, parts: dict, den: int) -> "CMatrix":
        return cls(space, {s: space.field.from_columns(cols, den, space.dim)
                           for s, cols in parts.items()})

    def scale(self, value: Cyclo) -> "CMatrix":
        if value.is_zero():
            return CMatrix.zero(self.space)
        return CMatrix(self.space, {k: [value * c for c in v] for k, v in self.parts.items()})

    def mul_int(self, n: int) -> "CMatrix":
        return self.scale(self.space.field.from_rational(n))

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return (self - other).is_zero()

    def scalar_value(self) -> Cyclo | None:
        """The scalar when the matrix is an exact multiple of the identity."""
        if not self.parts:
            return self.space.field.zero
        if set(self.parts) != {self.space.zero_shift}:
            return None
        d = self.parts[self.space.zero_shift]
        v = d[0]
        return v if all(c == v for c in d) else None

    def is_diagonal(self) -> bool:
        return set(self.parts) <= {self.space.zero_shift}

    def entries(self):
        """Iterate nonzero entries as ((row, col), value) in linear indices."""
        space = self.space
        for k, d in self.parts.items():
            perm = space.perm(k)
            for j in range(space.dim):
                if not d[j].is_zero():
                    yield (perm[j], j), d[j]


class RepSpace:
    """Index bookkeeping for the tensor product over internal edges.

    The space is the one home of the root order ``p`` and of the cyclotomic
    ``field`` its matrices' entries live in; ``Rep`` reads both from here.
    """

    def __init__(self, field: CycloField, n_edges: int):
        self.field = field
        self.p = p = field.p
        self.n = n_edges
        self.dim = p ** n_edges
        self.zero_shift = (0,) * n_edges
        self.tuples = list(itertools.product(range(p), repeat=n_edges)) if n_edges else [()]
        self.enc = {t: i for i, t in enumerate(self.tuples)}
        self._perms: dict[tuple[int, ...], list[int]] = {}

    def add_shift(self, k, l):
        return tuple((a + b) % self.p for a, b in zip(k, l))

    def pairing(self, m) -> list[int]:
        """<j, m> mod p for every basis tuple j, in basis order."""
        out = [0]
        for mi in m:
            out = [(w + t * mi) % self.p for w in out for t in range(self.p)]
        return out

    def lift(self, edges: tuple[int, ...], onto: tuple[int, ...] | None = None) -> list[int]:
        """For each basis tuple of the factors ``onto`` (all by default), the index of its
        restriction to ``edges``; both are increasing edge positions, ``edges`` in ``onto``."""
        out = [0]
        for i in range(self.n) if onto is None else onto:
            w = self.p ** (len(edges) - 1 - edges.index(i)) if i in edges else 0
            out = [o + w * t for o in out for t in range(self.p)]
        return out

    def perm(self, l) -> list[int]:
        """The index of basis vector j + l, for every j in basis order (cached per l)."""
        if l not in self._perms:
            self._perms[l] = [self.enc[self.add_shift(t, l)] for t in self.tuples]
        return self._perms[l]


@dataclass
class Rep:
    """Clock/shift representation data for one sausage graph.

    ``p`` and ``field`` are read-only views of ``space``, which holds them.
    Derive a representation with ``dataclasses.replace``; it starts with
    empty caches.
    """

    graph: SausageGraph
    space: RepSpace
    x: dict[str, Cyclo]
    y: dict[str, Cyclo]
    boundary: Cyclo
    # per (SigmaTable, CurveId), twisted curves included: the curve's matrix
    # and its T_p shadow scalar; not compared, and every new Rep starts with them empty
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _shadows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.space.p

    @property
    def field(self) -> CycloField:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def x_of(self, edge: str) -> Cyclo:
        """Shadow parameter of an edge; univalent edges read the boundary."""
        if edge in self.graph.univalent_edges:
            return self.boundary
        return self.x[edge]

    def q_matrix(self, edge: str) -> CMatrix:
        i = self.graph.edge_index[edge]
        xe = self.x[edge]
        diag = [xe * self.field.minus_a_power(t[i]) for t in self.space.tuples]
        return CMatrix(self.space, {self.space.zero_shift: diag})

    def e_matrix(self, edge: str) -> CMatrix:
        return CMatrix(self.space, {self.graph.edge_vector({edge: 1}): [self.y[edge]] * self.dim})

    def to_json(self) -> dict:
        return {
            "p": self.p, "genus": self.graph.genus, "closed": self.graph.closed, "dim": self.dim,
            "x": {e: str(v) for e, v in self.x.items()},
            "y": {e: str(v) for e, v in self.y.items()},
            "boundary": str(self.boundary),
        }


# ---------------------------------------------------------------------------
# genericity and construction
# ---------------------------------------------------------------------------

def genericity_check(x: dict[str, Cyclo], g: SausageGraph, boundary: Cyclo | None = None):
    """Check the open conditions the construction needs.

    Every value, the boundary's too, is nonzero (curve images divide by it).
    Per internal edge:  x_e^{4p} != 1.  Per vertex triple and every sign
    pattern: the product of the x^{+-p} must differ from its inverse, p being
    the root order of the values' field.  Returns (ok, diagnostics) where
    diagnostics lists every violated condition.
    """
    field = x[g.internal_edges[0]].field
    p, one = field.p, field.one
    diags = []
    values = dict(x)
    for u in g.univalent_edges:
        values[u] = boundary if boundary is not None else one
        if values[u].is_zero():
            diags.append({"check": "nonzero", "edge": u})
    for e in g.internal_edges:
        if values[e].is_zero():
            diags.append({"check": "nonzero", "edge": e})
        elif values[e] ** (4 * p) == one:
            diags.append({"check": "eqG2", "edge": e})
    for v in g.vertices:
        vals = [values[e] for e in v]
        if any(c.is_zero() for c in vals):
            continue
        for eps in itertools.product((1, -1), repeat=3):
            # a repeated edge at a vertex is a loop seen from both ends; only
            # sign patterns constant on its two slots produce denominator
            # monomials (mixed patterns collapse to a single variable, which
            # the per-edge condition already covers)
            if any(v[i] == v[j] and eps[i] != eps[j]
                   for i in range(3) for j in range(i + 1, 3)):
                continue
            lhs = one
            for val, s in zip(vals, eps):
                lhs = lhs * val ** (p * s)
            if lhs == lhs.inv():
                diags.append({"check": "eqG1", "vertex": list(v), "signs": list(eps)})
    return (not diags), diags


def build_rep(g: SausageGraph, p: int, x: dict, y: dict | None = None, boundary=None) -> Rep:
    """Build the per-edge clock/shift representation from shadow parameters.

    A ValueError names an x or y key that is no internal edge, an internal
    edge without x, or a boundary value on a closed graph; then the dimension
    is checked before the field is built.  A value is scalar text
    (``parse_cyclo_scalar``) or a rational number; y and the boundary
    default to 1.
    """
    edges, y = g.internal_edges, y or {}
    for flag, values in (("x", x), ("y", y)):
        for e in values:
            if e not in edges:
                raise ValueError(f"{flag} assigns to {e!r}, which is not an internal edge "
                                 f"(edges: {', '.join(edges)})")
    for e in edges:
        if e not in x:
            raise ValueError(f"x has no value for the internal edge {e!r}")
    if boundary is not None and g.closed:
        raise ValueError("a boundary value needs a graph with a boundary; "
                         f"the closed genus-{g.genus} graph has none")
    n_edges = len(edges)
    if p ** n_edges > MAX_DIM:
        raise DimensionError(
            f"p = {p} on {n_edges} internal edges gives dimension {p ** n_edges}, "
            f"above the limit {MAX_DIM}")
    field = CycloField(p)

    def conv(v):
        return parse_cyclo_scalar(field, v) if isinstance(v, str) else field.from_rational(v)

    xs = {e: conv(x[e]) for e in edges}
    ys = {e: conv(y[e]) if e in y else field.one for e in edges}
    bnd = conv(boundary if boundary is not None else 1)
    ok, diags = genericity_check(xs, g, bnd)
    if not ok:
        raise GenericityError(f"shadow parameters fail genericity: {diags}")
    if any(v.is_zero() for v in ys.values()):
        raise GenericityError("gauge scalars must be nonzero")
    return Rep(g, RepSpace(field, n_edges), xs, ys, bnd)


def gauge_shift(rep: Rep, j: dict[str, int] | None = None,
                m: dict[str, int] | None = None) -> Rep:
    """x_e -> x_e (-A)^{j_e},  y_e -> y_e A^{2 m_e}: central powers unchanged."""
    j = j or {}
    m = m or {}
    xs = {e: rep.x[e] * rep.field.minus_a_power(j.get(e, 0)) for e in rep.x}
    ys = {e: rep.y[e] * rep.field.a_power(2 * m.get(e, 0)) for e in rep.y}
    return replace(rep, x=xs, y=ys)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval_poly_diag(rep: Rep, poly: LPoly) -> tuple[tuple[int, ...], list[Cyclo]]:
    """Values of a Laurent polynomial on the joint eigenbasis diagonal, on the
    tensor factors it touches, as (edges, values) for ``exactalg.eval_frac``.

    On basis vector j a term with Q-exponents m takes the value of its
    specialization at Q_e -> x_e times (-A)^<j, m>, which depends on m only
    mod p.  Terms are summed per class of m mod p; the touched edges are the
    nonzero slots of the classes with a nonzero sum.  Each class sum is rotated
    by the powers of -A it needs, and each value is one integer sum over the
    classes on their common denominator."""
    space, field, p, g = rep.space, rep.field, rep.p, rep.graph
    slots = [poly.ctx.index[g.var_of_edge(e)] for e in g.internal_edges]
    assign = {g.var_of_edge(e): rep.x_of(e) for e in g.internal_edges + g.univalent_edges}
    classes: dict[tuple[int, ...], list[Cyclo]] = {}
    for exp, v in term_values(poly, field, assign):
        classes.setdefault(tuple(exp[s] % p for s in slots), []).append(v)
    totals = {m: total for m, vals in classes.items() if (total := field.sum(vals))}
    edges = tuple(i for i in range(space.n) if any(m[i] for m in totals))
    den = lcm(*(total.den for total in totals.values()))
    columns = []
    for m, total in totals.items():
        weights = space.pairing([m[i] for i in edges])
        rotated = {}
        for w in set(weights):
            r = field.minus_a_power(w) * total if w else total
            rotated[w] = [den // r.den * c for c in r.num]
        columns.append([rotated[w] for w in weights])
    # no nonzero class: zero on the one tuple of no factors
    return edges, [field._canonical([sum(cs) for cs in zip(*nums)], den)
                   for nums in zip(*columns)] or [field.zero]


def eval_element(x: QTElem, r: Rep) -> CMatrix:
    """Matrix of an even-subalgebra element under the representation.  Each
    term E^k F is evaluated on the tensor factors it touches, prod y_e^{k_e}
    folded into F's inverted denominators; the terms on one shift mod p are
    summed on the union of their factors and lifted to every basis vector."""
    if not a0_membership(x):
        raise MembershipError("element is outside the even subalgebra")
    space, field, eval_poly = r.space, r.field, partial(_eval_poly_diag, r)
    by_shift: dict[tuple[int, ...], list] = {}
    for k, fr in x.terms.items():
        by_shift.setdefault(tuple(v % r.p for v in k), []).append((k, fr))
    out = {}
    for shift, terms in by_shift.items():
        evaluated = []
        for k, fr in terms:
            ycoef = prod((r.y[e] ** ke for e, ke in zip(r.graph.internal_edges, k) if ke),
                         start=field.one)
            evaluated.append(eval_frac(fr, field, eval_poly, space.lift, ycoef))
        edges = tuple(sorted({i for term_edges, _vals in evaluated for i in term_edges}))
        columns = [[vals[q] for q in space.lift(term_edges, edges)]
                   for term_edges, vals in evaluated]
        row = columns[0] if len(columns) == 1 else [field.sum(vals) for vals in zip(*columns)]
        if any(row):
            out[shift] = [row[q] for q in space.lift(edges)]
    return CMatrix(space, out)


def _product(space: RepSpace, left: dict, right: dict, back: dict | None = None,
             shifted: dict | None = None) -> dict:
    """left * right + back on parts held as integer columns (``CMatrix.columns``).

    Part d at shift s times part e at shift l lands on shift s + l with entry
    j = d[j + l] e[j]: the parts are paired by output shift and left's
    columns read at j + l, memoised in ``shifted`` per (s, l) when a caller
    multiplies by one left matrix repeatedly.  Per output part the products
    and back's columns share one unreduced accumulation, reduced mod Phi
    once; parts that come out zero are dropped.  Back's columns may be
    iterators, read once, so a scaled back term is never held whole."""
    field, deg = space.field, space.field.deg
    back = back or {}
    shifted = {} if shifted is None else shifted
    pairs: dict[tuple, list] = {}
    for s, dcols in left.items():
        for l, ecols in right.items():
            nc = shifted.get((s, l))
            if nc is None:
                perm = space.perm(l)
                nc = shifted[s, l] = [col and list(map(col.__getitem__, perm)) for col in dcols]
            pairs.setdefault(space.add_shift(s, l), []).append((nc, ecols))
    for t in back:
        pairs.setdefault(t, [])
    out = {}
    for t, terms in pairs.items():
        acc = [col and list(col) for col in back.get(t, [None] * deg)] + [None] * (deg - 1)
        for dcols, ecols in terms:
            field.mul_columns(acc, dcols, ecols)
        cols = field.reduce_columns(acc)
        if any(cols):
            out[t] = cols
    return out


def chebyshev_T(k: int, M: CMatrix) -> CMatrix:
    """First-kind Chebyshev normalized by T_k(u + u^{-1}) = u^k + u^{-k}, so
    that T_{-k} = T_k.

    Exact integer kernel: with M = N / D, D the lcm of the entries'
    denominators and N integer columns, the recurrence S_0 = 2I, S_1 = N,
    S_{i+1} = N S_i - D^2 S_{i-1} runs through ``_product`` and gives
    T_k(M) = S_k / D^k, each entry canonicalised once, at the end.  It runs
    on the tensor factors M touches only: an edge is touched when some part
    shifts it or some column of N changes under j -> j + e_i, so every entry
    of M is tested.  Otherwise M = M' (x) I and T_k(M) = T_k(M') (x) I, so
    T_k(M') is formed on the smaller space and lifted back by index to every
    basis vector of M's space, where a scalar test still checks each one.
    """
    k = abs(k)
    space, field = M.space, M.space.field
    D, N = M.columns()
    units = [space.perm(tuple(int(a == i) for a in range(space.n))) for i in range(space.n)]
    touched = tuple(i for i, perm in enumerate(units) if any(s[i] for s in N) or any(
        col and list(map(col.__getitem__, perm)) != col for cols in N.values() for col in cols))
    small = space if len(touched) == space.n else RepSpace(field, len(touched))
    lift = space.lift(touched)
    if small is not space:
        # one basis vector for each small index (N is invariant along the
        # untouched edges, so any one will do)
        last = dict(zip(lift, range(space.dim)))
        pick = [last[q] for q in range(small.dim)]
        N = {tuple(s[i] for i in touched): [col and [col[j] for j in pick] for col in cols]
             for s, cols in N.items()}
    prev, cur = {small.zero_shift: [[2] * small.dim] + [None] * (field.deg - 1)}, N
    minus_d2 = itertools.repeat(-D * D)
    shifted: dict = {}
    for _ in range(k - 1):
        back = {s: [col and map(mul, col, minus_d2) for col in cols]
                for s, cols in prev.items()}
        prev, cur = cur, _product(small, N, cur, back, shifted)
    T = CMatrix.from_columns(small, cur if k else prev, D ** k)
    if small is space:
        return T
    return CMatrix(space, {tuple(dict(zip(touched, s)).get(i, 0) for i in range(space.n)):
                           [d[q] for q in lift] for s, d in T.parts.items()})


def _curve_matrix(curve: CurveId, r: Rep, t: SigmaTable) -> CMatrix:
    """The matrix of the curve's image, evaluated once per representation."""
    key = (t, curve)
    M = r._matrices.get(key)
    if M is None:
        M = r._matrices[key] = eval_element(t.image(curve), r)
    return M


def shadow_scalar(curve: CurveId, r: Rep, t: SigmaTable) -> Cyclo:
    """The exact scalar of T_p applied to the curve's matrix (equals -Tr of
    the shadow holonomy), computed once per representation; twisted curves
    included.  A T_p(M) that is not a scalar raises, naming the curve."""
    key = (t, curve)
    v = r._shadows.get(key)
    if v is None:
        v = chebyshev_T(r.p, _curve_matrix(curve, r, t)).scalar_value()
        if v is None:
            raise AssertionError(f"T_p of {curve} is not scalar; construction broken")
        r._shadows[key] = v
    return v


def classical_shadow(c: CurveId, r: Rep, t: SigmaTable) -> Cyclo:
    """Trace of the classical-shadow holonomy around the curve."""
    return -shadow_scalar(c, r, t)


# ---------------------------------------------------------------------------
# shadow formula verification
# ---------------------------------------------------------------------------

def _u_orbit(rep: Rep, z: Cyclo) -> Cyclo:
    """prod over k < p of U((-A)^k z), where U(w) = w - w^{-1}."""
    field = rep.field
    total = field.one
    for k in range(rep.p):
        w = field.minus_a_power(k) * z
        total = total * (w - w.inv())
    return total


def _omega_two_cycle(rep: Rep, curve: CurveId) -> Cyclo:
    b, c, a, a2 = curve.edges
    xb, xc = rep.x_of(b), rep.x_of(c)
    xa, xa2 = rep.x_of(a), rep.x_of(a2)
    return -(_u_orbit(rep, xa2 * xc * xb.inv()) * _u_orbit(rep, xa * xc * xb.inv())
             / _u_orbit(rep, xc * xc) ** 2)


def _omega_sep(rep: Rep, curve: CurveId) -> Cyclo:
    c, d1, d2, d3, d4 = curve.edges
    xc = rep.x_of(c)
    x1, x2, x3, x4 = (rep.x_of(d) for d in (d1, d2, d3, d4))
    return _u_orbit(rep, x1 * x4 * xc.inv()) * _u_orbit(rep, x2 * x3 * xc.inv())


def verify_cshadow(r: Rep, t: SigmaTable) -> SuiteReport:
    """Exact checks of the central p-th power scalars against shadow traces."""
    return SuiteReport.collect("cshadow", r.graph, _shadow_checks(r, t))


def _shadow_checks(r: Rep, t: SigmaTable):
    g = r.graph
    p = r.p
    identity = CMatrix.identity(r.space)
    for e in g.internal_edges:
        yield (f"q_power[{e}]",
               power(r.q_matrix(e), 2 * p, identity).scalar_value() == r.x[e] ** (2 * p))
        yield f"e_power[{e}]", power(r.e_matrix(e), p, identity).scalar_value() == r.y[e] ** p

    for name, curve in t.catalogue.items():
        if curve.kind == "one_cycle":
            e = curve.edges[0]
            xe = r.x[e]
            r_g = shadow_scalar(curve, r, t)
            r_t = shadow_scalar(curve.twisted(e, 1), r, t)
            # solving  r_g = P + R,  r_t = P x^{2p} + R x^{-2p}  for P = y^p;
            # the twisted row carries positive signs because the p-th powers
            # of -A^3 E Q^2 and -A^{-1} E^{-1} Q^{-2} F are +E^p Q^{2p} and
            # +(E^{-1} F)^p Q^{-2p} once A^p = -1 is used
            rhs = (r_t - r_g * xe ** (-2 * p)) / (xe ** (2 * p) - xe ** (-2 * p))
            yield f"shadow_one_cycle[{name}]", r.y[e] ** p == rhs
        elif curve.kind == "two_cycle":
            b, c, a, a2 = curve.edges
            xb, xc = r.x[b], r.x[c]
            r_g = shadow_scalar(curve, r, t)
            r_tb = shadow_scalar(curve.twisted(b, 1), r, t)
            r_tc = shadow_scalar(curve.twisted(c, 1), r, t)
            r_tbc = shadow_scalar(curve.twisted(c, 1).twisted(b, 1), r, t)
            den = (xb ** (2 * p) - xb ** (-2 * p)) * (xc ** (2 * p) - xc ** (-2 * p))
            rhs = (r_g * xb ** (-2 * p) * xc ** (-2 * p) - r_tb * xc ** (-2 * p)
                   - r_tc * xb ** (-2 * p) + r_tbc) / den
            yield f"shadow_two_cycle_plus[{name}]", r.y[b] ** p * r.y[c] ** p == rhs
            omega = _omega_two_cycle(r, curve)
            rhs = (-r_g * xb ** (-2 * p) * xc ** (2 * p) + r_tb * xc ** (2 * p)
                   + r_tc * xb ** (-2 * p) - r_tbc) / (den * omega)
            yield f"shadow_two_cycle_minus[{name}]", r.y[b] ** p * (r.y[c] ** p).inv() == rhs
        elif curve.kind == "separating":
            c = curve.edges[0]
            xc = r.x[c]
            r_g = shadow_scalar(curve, r, t)
            r_tc = shadow_scalar(curve.twisted(c, 1), r, t)
            r_tci = shadow_scalar(curve.twisted(c, -1), r, t)
            r_c = shadow_scalar(CurveId("pants", (c,)), r, t)
            omega2 = _omega_sep(r, curve)
            xp, xm = xc ** (2 * p), xc ** (-2 * p)
            den_stmt = (xp - xm) ** 2 * r_c * omega2
            rhs_stmt = (r_tci * xm + r_g * r_c + r_tc * xp) / den_stmt
            yield f"shadow_sep_statement[{name}]", r.y[c] ** (2 * p) == rhs_stmt
            # the proof solves the three-twist system before dividing by omega'
            rhs_proof = (r_tci * xm - r_g * (xp + xm) + r_tc * xp) / ((xp - xm) ** 2 * (xp + xm))
            yield f"shadow_sep_system[{name}]", -(r.y[c] ** (2 * p)) * omega2 == rhs_proof


# ---------------------------------------------------------------------------
# commutant and intertwiners
# ---------------------------------------------------------------------------

def _entry_equations(r1: Rep, r2: Rep, t: SigmaTable):
    """The spectral permutation pi and the entry equations of T M1 = M2 T.

    The joint spectrum of the diagonal curves labels each basis vector; pi
    sends a basis vector of r1 to the one of r2 with its label.  Each curve,
    with matrices M1 under r1 and M2 under r2, gives one equation
    (u, c, M1[u, c], M2[pi u, pi c]) per pair (u, c) where either is nonzero:

        t_u M1[u, c] = M2[pi u, pi c] t_c.

    Raises NotImplementedError when either joint spectrum is degenerate, and
    returns None when a label of r1 is missing from r2.
    """
    space, zero = r1.space, r1.field.zero
    pairs = [(_curve_matrix(t.catalogue[n], r1, t), _curve_matrix(t.catalogue[n], r2, t))
             for n in sorted(t.catalogue)]
    lab1, lab2 = (list(zip(*(M.parts[space.zero_shift] for M in mats if M.is_diagonal())))
                  for mats in zip(*pairs))
    pos2 = {lab: rr for rr, lab in enumerate(lab2)}
    if len(pos2) != space.dim or len(set(lab1)) != space.dim:
        raise NotImplementedError("degenerate joint spectra")
    if any(lab not in pos2 for lab in lab1):
        return None
    pi = [pos2[lab] for lab in lab1]
    pi_inv = sorted(range(space.dim), key=pi.__getitem__)
    # distinct shifts map a column to distinct rows, so each side is one entry
    equations = []
    for M1, M2 in pairs:
        lhs = dict(M1.entries())
        rhs = {(pi_inv[rr], pi_inv[cc]): v for (rr, cc), v in M2.entries()}
        equations.extend((u, c, lhs.get((u, c), zero), rhs.get((u, c), zero))
                         for u, c in {**lhs, **rhs})
    return pi, equations


def _components(dim: int, equations) -> list[list[tuple[int, tuple | None]]]:
    """The connected components of the equations (u, c, ...) as edges between
    basis indices.  Each lists its indices in breadth-first order with the
    equation each was reached by (None for the first): a spanning tree."""
    adjacent: list[list[tuple]] = [[] for _ in range(dim)]
    for eq in equations:
        adjacent[eq[0]].append(eq)
        adjacent[eq[1]].append(eq)
    seen = [False] * dim
    components = []
    for root in range(dim):
        if not seen[root]:
            seen[root] = True
            comp = [(root, None)]
            components.append(comp)
            for v, _via in comp:  # comp grows while it is read: the queue
                for eq in adjacent[v]:
                    w = eq[1] if eq[0] == v else eq[0]
                    if not seen[w]:
                        seen[w] = True
                        comp.append((w, eq))
    return components


def irreducibility_commutant(r: Rep, t: SigmaTable) -> int:
    """Dimension of the joint commutant of the curve-operator images.

    The joint spectrum is nondegenerate, so a commuting X is diagonal, and
    each nonzero entry M[u, c] equates X[u, u] and X[c, c]: the dimension is
    the number of components of the entry equations of (r, r).
    """
    _pi, equations = _entry_equations(r, r, t)
    return len(_components(r.dim, equations))


def find_intertwiner(r1: Rep, r2: Rep, t: SigmaTable):
    """Invertible T with T rho1(.) = rho2(.) T over all catalogued curves.

    T is supported on the entries T[pi c, c] = t_c, with pi and the equations
    t_u M1[u, c] = M2[pi u, pi c] t_c of ``_entry_equations``, and is unique
    up to a scalar.  The decisions, in order:

    1. a degenerate joint spectrum raises NotImplementedError;
    2. a label of r1 missing from r2 returns None;
    3. an equation with a zero side returns None: an invertible diagonal t
       cannot make one side zero and the other nonzero;
    4. equations in more than one component raise ReducibleError;
    5. t_0 = 1 is propagated along a spanning tree of the equations, and
       every equation is then tested: any failure returns None.
    """
    if r1.graph is not r2.graph and r1.graph.ctx != r2.graph.ctx:
        raise ValueError("representations live on different graphs")
    if r1.p != r2.p:
        raise ValueError("representations at different root orders")
    space, field = r1.space, r1.field
    solved = _entry_equations(r1, r2, t)
    if solved is None:
        return None
    pi, equations = solved
    if any(not a or not b for _u, _c, a, b in equations):
        return None
    components = _components(space.dim, equations)
    if len(components) > 1:
        raise ReducibleError(f"intertwiner equations split into {len(components)} components")
    # the tree coefficients are matrix entries, which repeat
    inv = cache(Cyclo.inv)
    tval: list[Cyclo] = [field.one] * space.dim
    for v, eq in components[0][1:]:
        u, c, a, b = eq
        tval[v] = b * tval[c] * inv(a) if v == u else a * tval[u] * inv(b)
    if not all(field.products_equal(tval[u], a, b, tval[c]) for u, c, a, b in equations):
        return None
    parts: dict[tuple[int, ...], list[Cyclo]] = {}
    for c, rr in enumerate(pi):
        shift = tuple((a - b) % r1.p for a, b in zip(space.tuples[rr], space.tuples[c]))
        parts.setdefault(shift, [field.zero] * space.dim)[c] = tval[c]
    return CMatrix(space, parts)
