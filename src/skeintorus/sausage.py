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

from .exactalg import VarContext, u_poly, _canonical_factor

# The largest |n| of a denominator factor U(A^n Q_e^2) that membership in the
# even subalgebra accepts.
U_DEN_BOUND = 8


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
    """Dual graph of the sausage decomposition, with lattices and catalogue."""

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
        # re-emit in the canonical a0, a1, b1, c1, a2, ... enumeration
        ordered = ["a0"]
        for i in range(1, genus + 1):
            for name in (f"a{i}", f"b{i}", f"c{i}"):
                if name in roles and name not in ordered:
                    ordered.append(name)
        self.internal_edges: tuple[str, ...] = tuple(ordered)
        self.edge_roles = roles

        # vertices, left to right; loops are listed twice
        verts: list[tuple[str, str, str]] = [("a0", "a0", "c1")]
        for (a, b, cl, cr) in self.handles:
            verts.append((cl, a, b))
            verts.append((a, b, cr))
        if closed:
            if genus == 2:
                verts = [("a0", "a0", "c1"), ("c1", "a1", "a1")]
            else:
                verts[-1] = (f"a{genus - 2}", f"b{genus - 2}", f"c{genus - 1}")
                verts.append((f"c{genus - 1}", f"a{genus - 1}", f"a{genus - 1}"))
        self.vertices: tuple[tuple[str, str, str], ...] = tuple(verts)

        # separating-edge adjacency: (d1, d4) at the left endpoint, (d2, d3) right
        self.seps: list[tuple[str, str, str, str, str]] = []
        for c in self.internal_edges:
            if roles[c] != "separating":
                continue
            ends = [v for v in self.vertices if c in v]
            left, right = ends[0], ends[1]
            d1, d4 = [e for e in left if e != c] if left.count(c) == 1 else (c, c)
            rest = list(right)
            rest.remove(c)
            d2, d3 = rest
            self.seps.append((c, d1, d2, d3, d4))

        names = ["A"] + [f"Q[{e}]" for e in self.internal_edges]
        if self.univalent_edges:
            names.append("C[1]")
        self.ctx = VarContext(names, q_slots=range(1, 1 + len(self.internal_edges)))
        self._edge_slot = {e: i + 1 for i, e in enumerate(self.internal_edges)}
        self._u_table: dict | None = None

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

    def lambda_member(self, k: tuple[int, ...]) -> bool:
        """Vertex parity: the exponents of the three edges at every trivalent
        vertex sum to an even number (univalent edges contribute zero)."""
        idx = {e: i for i, e in enumerate(self.internal_edges)}
        for v in self.vertices:
            s = sum(k[idx[e]] for e in v if e in idx)
            if s % 2:
                return False
        return True

    def e_lattice_basis(self) -> list[tuple[int, ...]]:
        n = len(self.internal_edges)
        idx = {e: i for i, e in enumerate(self.internal_edges)}

        def vec(entries: dict[str, int]) -> tuple[int, ...]:
            v = [0] * n
            for e, c in entries.items():
                v[idx[e]] = c
            return tuple(v)

        basis = [vec({lp: 1}) for lp in self.loops]
        for (a, b, _, _) in self.handles:
            basis.append(vec({a: 1, b: 1}))
            basis.append(vec({a: 1, b: -1}))
        for (c, *_surr) in self.seps:
            basis.append(vec({c: 2}))
        return basis

    def e_decompose(self, k: tuple[int, ...]) -> list[int] | None:
        """Unique integer coordinates of k in the E-lattice basis, or None."""
        idx = {e: i for i, e in enumerate(self.internal_edges)}
        coords: list[int] = []
        for lp in self.loops:
            coords.append(k[idx[lp]])
        for (a, b, _, _) in self.handles:
            u, v = k[idx[a]], k[idx[b]]
            if (u + v) % 2:
                return None
            coords += [(u + v) // 2, (u - v) // 2]
        for (c, *_s) in self.seps:
            if k[idx[c]] % 2:
                return None
            coords.append(k[idx[c]] // 2)
        return coords

    def q_lattice_basis(self) -> list[tuple[int, ...]]:
        n = len(self.internal_edges)
        idx = {e: i for i, e in enumerate(self.internal_edges)}

        def vec(entries: dict[str, int]) -> tuple[int, ...]:
            v = [0] * n
            for e, c in entries.items():
                v[idx[e]] = c
            return tuple(v)

        basis = [vec({lp: 2}) for lp in self.loops]
        for (a, b, _, _) in self.handles:
            basis.append(vec({a: 1, b: 1}))
            basis.append(vec({a: 1, b: -1}))
        for (c, *_s) in self.seps:
            basis.append(vec({c: 1}))
        return basis

    def r0_exponent_ok(self, exp: tuple[int, ...]) -> bool:
        """Is the full-context exponent tuple an even Q-monomial (A, C free)?
        Only the parity of each exponent matters."""
        for lp in self.loops:
            if exp[self._edge_slot[lp]] % 2:
                return False
        for (a, b, _, _) in self.handles:
            if (exp[self._edge_slot[a]] + exp[self._edge_slot[b]]) % 2:
                return False
        return True

    def u_den_table(self) -> dict:
        """Canonical keys of U(A^n Q_e^2) for internal e and |n| <= U_DEN_BOUND."""
        if self._u_table is None:
            table = {}
            for e in self.internal_edges:
                q = self.var_of_edge(e)
                for m in range(-U_DEN_BOUND, U_DEN_BOUND + 1):
                    canon, _s, _m, _c = _canonical_factor(u_poly(self.ctx, {q: 2}, m))
                    table[canon.key()] = canon
            self._u_table = table
        return self._u_table

    # -- curves ---------------------------------------------------------------

    def curve_catalogue(self) -> dict[str, CurveId]:
        """All generator curves, keyed by their display name."""
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
        cat = self.curve_catalogue()
        if name not in cat:
            raise KeyError(f"unknown curve {name!r} on {self!r}")
        return cat[name]

    def sep_by_edge(self, c: str) -> tuple[str, str, str, str, str]:
        for item in self.seps:
            if item[0] == c:
                return item
        raise KeyError(f"{c} is not a separating edge")

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

    def generator_sets(self):
        """The X / Y / Z generator name lists of the even subalgebra."""
        X: list[str] = [f"Q[{lp}]^2" for lp in self.loops]
        Y: list[str] = [f"E[{lp}]" for lp in self.loops]
        for (a, b, _, _) in self.handles:
            X += [f"Q[{a}]*Q[{b}]", f"Q[{a}]*Q[{b}]^-1"]
            Y += [f"E[{a}]*E[{b}]", f"E[{a}]*E[{b}]^-1"]
        for (c, *_s) in self.seps:
            X.append(f"Q[{c}]")
            Y.append(f"E[{c}]^2")
        Z = [f"Q[{u}]" for u in self.univalent_edges]
        return X, Y, Z

    def weyl_pairs(self):
        """Structured (Q-monomial, E-monomial) Weyl pairs, as exponent dicts."""
        pairs = []
        for lp in self.loops:
            pairs.append(({lp: 2}, {lp: 1}))
        for (a, b, _, _) in self.handles:
            pairs.append(({a: 1, b: 1}, {a: 1, b: 1}))
            pairs.append(({a: 1, b: -1}, {a: 1, b: -1}))
        for (c, *_s) in self.seps:
            pairs.append(({c: 1}, {c: 2}))
        return pairs


def build_graph(genus: int, closed: bool) -> SausageGraph:
    return SausageGraph(genus, closed)


def lambda_member(k: tuple[int, ...], g: SausageGraph) -> bool:
    return g.lambda_member(k)


def generator_sets(g: SausageGraph):
    return g.generator_sets()


def curve_catalogue(g: SausageGraph) -> dict[str, CurveId]:
    return g.curve_catalogue()
