"""Chain-of-handles pants decompositions and their dual trivalent graphs.

The decomposition of a genus-g surface (closed, or with one boundary
component) is a chain: a loop ``a0`` on the left, then alternating
separating edges ``c_i`` and parallel handle pairs ``(a_i, b_i)``.  For a
closed surface the chain ends in a second loop ``a_{g-1}`` (the handle pair
degenerates, ``b_{g-1}`` does not exist); with one boundary it ends in a
univalent tail ``c_g`` carrying the boundary variable ``C[1]``.

Edges are enumerated a0, a1, b1, c1, a2, b2, c2, ... and this fixed order
defines both the exponent-tuple layout and the monomial order tiebreak.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import LPoly, VarContext


@dataclass(frozen=True)
class CurveId:
    """A catalogued simple closed curve, optionally prefixed by full twists.

    ``edges`` depends on the kind:
      pants:       (e,)
      one_cycle:   (e, f)             e the loop traversed, f the third edge
      two_cycle:   (b, c, a, a2)      b, c traversed handle pair, a/a2 sides
      separating:  (c, d1, d2, d3, d4)  traversed twice over c
      tau, tau_bar: same data as separating
    ``twist_word`` is a sequence of (edge, sign); the rightmost entry is
    applied to the base curve first.
    """

    kind: str
    edges: tuple[str, ...]
    twist_word: tuple[tuple[str, int], ...] = ()

    def base(self) -> "CurveId":
        return CurveId(self.kind, self.edges) if self.twist_word else self

    def twisted(self, edge: str, sign: int) -> "CurveId":
        return CurveId(self.kind, self.edges, ((edge, sign),) + self.twist_word)


class SausageGraph:
    """Dual graph of the sausage decomposition: its lattices, the test for
    membership in the even subalgebra, and the curve catalogue."""

    def __init__(self, genus: int, closed: bool):
        if genus < 1 or (closed and genus < 2):
            raise ValueError(
                f"no hyperbolic sausage decomposition for genus={genus}, closed={closed}")
        self.genus = genus
        self.closed = closed

        internal: list[str] = []
        roles: dict[str, str] = {}
        self.loops: list[str] = ["a0"]
        self.handles: list[tuple[str, str, str, str]] = []  # (a_i, b_i, left c, right c)
        internal.append("a0")
        roles["a0"] = "loop"
        n_handles = genus - 2 if closed else genus - 1
        for i in range(1, n_handles + 1):
            internal += [f"a{i}", f"b{i}"]
            roles[f"a{i}"] = roles[f"b{i}"] = "handle"
            internal.append(f"c{i}")
            roles[f"c{i}"] = "separating"
            self.handles.append((f"a{i}", f"b{i}", f"c{i}", f"c{i + 1}"))
        if closed:
            term = f"a{genus - 1}"
            internal.append(term)
            roles[term] = "loop"
            internal.append(f"c{genus - 1}")
            roles[f"c{genus - 1}"] = "separating"
            self.loops.append(term)
            self.univalent_edges: tuple[str, ...] = ()
        else:
            self.univalent_edges = (f"c{genus}",)
        self.internal_edges: tuple[str, ...] = tuple(internal)
        self.edge_roles = roles

        # vertices, left to right; loops are listed twice
        verts: list[tuple[str, str, str]] = [("a0", "a0", "c1")]
        for (a, b, cl, cr) in self.handles:
            verts.append((cl, a, b))
            verts.append((a, b, cr))
        if closed:
            verts.append((f"c{genus - 1}", f"a{genus - 1}", f"a{genus - 1}"))
        self.vertices: tuple[tuple[str, str, str], ...] = tuple(verts)

        # the vertices at each edge, in order; a loop's vertex is listed once
        ends: dict[str, list[tuple[str, str, str]]] = {}
        for v in verts:
            for e in set(v):
                ends.setdefault(e, []).append(v)

        # separating-edge adjacency: (d1, d4) at the left endpoint, (d2, d3) right
        self.seps: list[tuple[str, str, str, str, str]] = []
        for c in self.internal_edges:
            if roles[c] != "separating":
                continue
            left, right = ends[c]
            d1, d4 = [e for e in left if e != c] if left.count(c) == 1 else (c, c)
            rest = list(right)
            rest.remove(c)
            d2, d3 = rest
            self.seps.append((c, d1, d2, d3, d4))

        names = ["A"] + [f"Q[{e}]" for e in self.internal_edges]
        if self.univalent_edges:
            names.append("C[1]")
        self.ctx = VarContext(names, q_slots=range(1, 1 + len(self.internal_edges)))
        self.edge_index = {e: i for i, e in enumerate(self.internal_edges)}
        # the E-halves of the Weyl pairs, sparse: (slot in a full-context
        # exponent tuple, exponent) for each edge a half uses
        self._e_halves = [[(1 + self.edge_index[e], k) for e, k in half.items()]
                          for _q, half in self.weyl_pairs()]
        self._u_dens: set = set()
        self._catalogue = self._build_catalogue()

    # -- basics ---------------------------------------------------------------

    def __repr__(self):
        kind = "closed" if self.closed else "one boundary"
        return f"SausageGraph(genus={self.genus}, {kind})"

    def edge_role(self, e: str) -> str:
        if e in self.univalent_edges:
            return "boundary"
        return self.edge_roles[e]

    def var_of_edge(self, e: str) -> str:
        if e in self.univalent_edges:
            return "C[1]"
        return f"Q[{e}]"

    # -- lattices ---------------------------------------------------------------

    def edge_vector(self, exps: dict[str, int]) -> tuple[int, ...]:
        """The internal-edge exponent vector of an edge name -> exponent dict."""
        v = [0] * len(self.internal_edges)
        for e, c in exps.items():
            v[self.edge_index[e]] = c
        return tuple(v)

    def lambda_member(self, k: tuple[int, ...]) -> bool:
        """Vertex parity: the exponents of the three edges at every trivalent
        vertex sum to an even number (univalent edges contribute zero)."""
        idx = self.edge_index
        return all(sum(k[idx[e]] for e in v if e in idx) % 2 == 0 for v in self.vertices)

    def e_lattice_basis(self) -> list[tuple[int, ...]]:
        return [self.edge_vector(e) for _q, e in self.weyl_pairs()]

    def q_lattice_basis(self) -> list[tuple[int, ...]]:
        return [self.edge_vector(q) for q, _e in self.weyl_pairs()]

    def e_decompose(self, k: tuple[int, ...]) -> list[int] | None:
        """Unique integer coordinates of k in the E-lattice basis, or None.

        The E- and Q-halves of the Weyl pairs pair to 2 within a pair and to 0
        across pairs, so the coordinate on pair i is <k, q_i> / 2."""
        coords = []
        for q in self.q_lattice_basis():
            s = sum(a * b for a, b in zip(k, q))
            if s % 2:
                return None
            coords.append(s // 2)
        return coords

    def r0_exponent_ok(self, exp: tuple[int, ...]) -> bool:
        """Is the full-context exponent tuple an even Q-monomial (A, C free)?

        By the same duality, its Q-part lies in the Q-lattice iff its pairing
        with every E-lattice basis vector is even, so only parities matter."""
        return all(sum(exp[i] * k for i, k in half) % 2 == 0 for half in self._e_halves)

    # -- the even subalgebra ----------------------------------------------------

    def in_a0(self, k: tuple[int, ...], f) -> bool:
        """Is the quantum-torus term E^k f, f a ``Frac``, in the even subalgebra?

        E^k must satisfy the vertex parity, every numerator monomial of f be
        an even Q-monomial, the denominator constant be 1, and every
        denominator factor localize (see ``_is_u_product``).  A form that
        fails is reduced and tested once more, as a factor of it may cancel.
        """
        return self.lambda_member(k) and (self._localizes(f) or self._localizes(f.reduced()))

    def _localizes(self, f) -> bool:
        """Is the form of the ``Frac`` f in the even part of the localized
        ring: even Q-monomials over a product of divisors of U's?"""
        if f.den_const != 1:
            return False
        # the even Q-monomial test reads parities only: one test per parity class
        if not all(self.r0_exponent_ok(e) for e in self.ctx.parities(f.num.terms)):
            return False
        accepted = self.u_den_table()
        for key, (poly, _m) in f.factors.items():
            if key not in accepted:
                if not self._is_u_product(poly):
                    return False
                accepted.add(key)
        return True

    def u_den_table(self) -> set:
        """Keys of the denominator factors this graph has already accepted
        (see ``_is_u_product``), so that each one is peeled once per graph."""
        return self._u_dens

    def _is_u_product(self, poly: LPoly) -> bool:
        """Is poly, up to a unit, a product of divisors of U(A^n Q_e^2) over
        internal edges e, each with an even cofactor?

        U(A^n Q_e^2) is x^v - 1 up to a unit, v = (2n in A, +-4 in Q_e, 0
        elsewhere).  A binomial x^w -+ 1 with w_Q > 0 on one internal edge
        divides such a U when v = K w for an integer K = 4 / w_Q, and for
        x^w + 1 an even K; its cofactor has the monomials x^(k w), k < K.
        Then 1 / (x^w -+ 1) is the cofactor over that U, in the even part
        when the cofactor is, so when K = 1 or x^w is an even Q-monomial.
        In a product of such binomials each w, times its multiplicity, is an
        edge of the Newton polytope, and the terms along that edge step by w;
        so every w is a difference of two exponents of poly.  Each such
        candidate is peeled off by exact division; a product of them leaves
        a unit, anything else leaves more.
        """
        ctx = self.ctx
        n = len(self.internal_edges)
        exps = [ctx.unpack(key) for key in poly.terms]
        rem = poly
        for w in {tuple(a - b for a, b in zip(e, f)) for e in exps for f in exps}:
            # keep the w with w_Q = 1, 2 or 4 on one internal edge
            q = [v for v in w[1:] if v]
            if len(q) != 1 or not any(w[1:1 + n]) or q[0] not in (1, 2, 4):
                continue
            if q[0] == 4:  # K = 1: x^w - 1 is the U when its A step is even
                signs = () if w[0] % 2 else (-1,)
            else:          # K = 2 or 4: the cofactor is a polynomial in x^w
                signs = (-1, 1) if self.r0_exponent_ok(w) else ()
            for s in signs:
                d = LPoly(ctx, {ctx.pack(w): 1, ctx.one: s})
                while len(rem.terms) > 1 and (quot := rem.exact_div(d)) is not None:
                    rem = quot
        return len(rem.terms) == 1 and abs(next(iter(rem.terms.values()))) == 1

    # -- curves ---------------------------------------------------------------

    def curve_catalogue(self) -> dict[str, CurveId]:
        """All generator curves, keyed by their display name: the one dict
        this graph built, so every reader shares it."""
        return self._catalogue

    def _build_catalogue(self) -> dict[str, CurveId]:
        cat: dict[str, CurveId] = {}
        for e in self.internal_edges:
            cat[f"alpha[{e}]"] = CurveId("pants", (e,))
        beta_i = 1
        cat[f"beta[{beta_i}]"] = CurveId("one_cycle", ("a0", "c1"))
        for (a, b, cl, cr) in self.handles:
            beta_i += 1
            cat[f"beta[{beta_i}]"] = CurveId("two_cycle", (a, b, cl, cr))
        if self.closed:
            beta_i += 1
            term = f"a{self.genus - 1}"
            cat[f"beta[{beta_i}]"] = CurveId("one_cycle", (term, f"c{self.genus - 1}"))
        for i, (c, d1, d2, d3, d4) in enumerate(self.seps, start=1):
            cat[f"gamma[{i}]"] = CurveId("separating", (c, d1, d2, d3, d4))
            cat[f"tau[{c}]"] = CurveId("tau", (c, d1, d2, d3, d4))
            cat[f"taubar[{c}]"] = CurveId("tau_bar", (c, d1, d2, d3, d4))
        return cat

    def curve_by_name(self, name: str) -> CurveId:
        if name not in self._catalogue:
            raise KeyError(f"unknown curve {name!r} on {self!r}")
        return self._catalogue[name]

    def intersection_vector(self, curve: CurveId) -> dict[str, int]:
        """Geometric intersection numbers with the pants curves (by edge)."""
        i = {e: 0 for e in self.internal_edges + self.univalent_edges}
        if curve.kind == "one_cycle":
            i[curve.edges[0]] = 1
        elif curve.kind == "two_cycle":
            i[curve.edges[0]] = 1
            i[curve.edges[1]] = 1
        elif curve.kind in ("separating", "tau", "tau_bar"):
            i[curve.edges[0]] = 2
        return i

    # -- generators of the even subalgebra ------------------------------------

    def weyl_pairs(self):
        """Structured (Q-monomial, E-monomial) Weyl pairs, as exponent dicts.

        This is the one table of the even subalgebra's generators: the
        lattice bases, their pairing and the generator names derive from it.
        """
        pairs = [({lp: 2}, {lp: 1}) for lp in self.loops]
        for (a, b, _, _) in self.handles:
            pairs.append(({a: 1, b: 1}, {a: 1, b: 1}))
            pairs.append(({a: 1, b: -1}, {a: 1, b: -1}))
        for (c, *_s) in self.seps:
            pairs.append(({c: 1}, {c: 2}))
        return pairs

    def generator_sets(self):
        """The X / Y / Z generator name lists of the even subalgebra."""
        def name(var: str, exps: dict[str, int]) -> str:
            return "*".join(f"{var}[{e}]" + ("" if k == 1 else f"^{k}") for e, k in exps.items())

        pairs = self.weyl_pairs()
        X = [name("Q", q) for q, _e in pairs]
        Y = [name("E", e) for _q, e in pairs]
        Z = [f"Q[{u}]" for u in self.univalent_edges]
        return X, Y, Z
