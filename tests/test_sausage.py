"""Graph combinatorics: vertices, lattices, generator sets, curve catalogue."""

import random

import pytest

from skeintorus import ContextMismatch, QTElem, SausageGraph, SigmaTable, parse_expression


def test_build_genus2_closed(g2c):
    assert g2c.internal_edges == ("a0", "a1", "c1")
    assert len(g2c.internal_edges) == 3 * 2 - 3
    assert g2c.edge_role("a0") == "loop" and g2c.edge_role("a1") == "loop"
    assert g2c.edge_role("c1") == "separating"
    assert g2c.vertices == (("a0", "a0", "c1"), ("c1", "a1", "a1"))


def test_compatible_graphs_share_one_torus(g2c, g2b, g3c):
    # the same graph, or another of the same genus and closedness
    twin = SausageGraph(2, True)
    assert g2c.compatible(g2c) and g2c.compatible(twin) and twin.compatible(g2c)
    assert not g2c.compatible(g2b) and not g2c.compatible(g3c)
    assert (QTElem.one(g2c) - QTElem.one(twin)).is_zero()
    with pytest.raises(ContextMismatch, match="different graphs"):
        QTElem.one(g2c) + QTElem.one(g2b)


def test_build_genus1_one_boundary(g1b):
    assert g1b.internal_edges == ("a0",)
    assert g1b.univalent_edges == ("c1",)
    assert g1b.vertices == (("a0", "a0", "c1"),)
    assert g1b.var_of_edge("c1") == "C[1]"


def test_build_genus3_edges_and_vertices():
    closed, bounded = SausageGraph(3, True), SausageGraph(3, False)
    assert closed.internal_edges == ("a0", "a1", "b1", "c1", "a2", "c2")
    assert closed.vertices == (("a0", "a0", "c1"), ("c1", "a1", "b1"),
                               ("a1", "b1", "c2"), ("c2", "a2", "a2"))
    assert bounded.internal_edges == ("a0", "a1", "b1", "c1", "a2", "b2", "c2")
    assert bounded.univalent_edges == ("c3",)
    assert bounded.vertices == (("a0", "a0", "c1"), ("c1", "a1", "b1"), ("a1", "b1", "c2"),
                                ("c2", "a2", "b2"), ("a2", "b2", "c3"))


def test_build_rejects_degenerate():
    with pytest.raises(ValueError):
        SausageGraph(1, True)   # torus: zero Euler characteristic
    with pytest.raises(ValueError):
        SausageGraph(0, False)


def test_build_genus4_closed():
    g = SausageGraph(4, True)
    assert len(g.internal_edges) == 3 * 4 - 3
    assert g.vertices[0] == ("a0", "a0", "c1")
    assert g.vertices[-1] == ("c3", "a3", "a3")
    assert [s[0] for s in g.seps] == ["c1", "c2", "c3"]
    # middle separating edge has distinct handles on both sides
    c2 = g.seps[1]
    assert (c2[1], c2[4]) == ("a1", "b1") and (c2[2], c2[3]) == ("a2", "b2")


@pytest.mark.parametrize("genus, closed, seps", [
    (2, True, "c1:a0,a1,a1,a0"),
    (3, True, "c1:a0,a1,b1,a0 c2:a1,a2,a2,b1"),
    (4, True, "c1:a0,a1,b1,a0 c2:a1,a2,b2,b1 c3:a2,a3,a3,b2"),
    (5, True, "c1:a0,a1,b1,a0 c2:a1,a2,b2,b1 c3:a2,a3,b3,b2 c4:a3,a4,a4,b3"),
    (6, True, "c1:a0,a1,b1,a0 c2:a1,a2,b2,b1 c3:a2,a3,b3,b2 c4:a3,a4,b4,b3 c5:a4,a5,a5,b4"),
    (2, False, "c1:a0,a1,b1,a0"),
    (3, False, "c1:a0,a1,b1,a0 c2:a1,a2,b2,b1"),
    (4, False, "c1:a0,a1,b1,a0 c2:a1,a2,b2,b1 c3:a2,a3,b3,b2"),
    (5, False, "c1:a0,a1,b1,a0 c2:a1,a2,b2,b1 c3:a2,a3,b3,b2 c4:a3,a4,b4,b3"),
    (6, False, "c1:a0,a1,b1,a0 c2:a1,a2,b2,b1 c3:a2,a3,b3,b2 c4:a3,a4,b4,b3 c5:a4,a5,b5,b4"),
])
def test_separating_edge_adjacency(genus, closed, seps):
    # each entry is c:d1,d2,d3,d4 (d1, d4 at c's left vertex, d2, d3 at its right)
    want = [(c, *d.split(",")) for c, d in (item.split(":") for item in seps.split())]
    assert SausageGraph(genus, closed).seps == want


def test_one_boundary_edge_count():
    for genus in (1, 2, 3):
        g = SausageGraph(genus, False)
        assert len(g.internal_edges) == 3 * genus - 2
        assert len(g.univalent_edges) == 1


def test_lambda_member_examples(g2c):
    assert g2c.lambda_member((1, 0, 0))      # e_{a0}
    assert not g2c.lambda_member((0, 0, 1))  # e_{c1}: odd at the first vertex
    assert g2c.lambda_member((0, 0, 0))
    assert g2c.lambda_member((0, 0, 2))


def test_lambda_closed_under_addition(g2c, g2b):
    rng = random.Random(2)
    for g in (g2c, g2b):
        n = len(g.internal_edges)
        members = []
        while len(members) < 12:
            k = tuple(rng.randrange(-4, 5) for _ in range(n))
            if g.lambda_member(k):
                members.append(k)
        for a in members:
            for b in members:
                assert g.lambda_member(tuple(x + y for x, y in zip(a, b)))
        # contains 2Z^n
        for _ in range(10):
            k = tuple(2 * rng.randrange(-3, 4) for _ in range(n))
            assert g.lambda_member(k)


def e_decompose(g, k):
    """Unique integer coordinates of k in the E-lattice basis of g, or None.

    The E- and Q-halves of the Weyl pairs pair to 2 within a pair and to 0
    across pairs, so the coordinate on pair i is <k, q_i> / 2."""
    coords = []
    for q in g.q_lattice_basis():
        s = sum(a * b for a, b in zip(k, q))
        if s % 2:
            return None
        coords.append(s // 2)
    return coords


def generator_sets(g):
    """The X / Y / Z generator name lists of the even subalgebra of g."""
    def name(var, exps):
        return "*".join(f"{var}[{e}]" + ("" if k == 1 else f"^{k}") for e, k in exps.items())

    pairs = g.weyl_pairs()
    X = [name("Q", q) for q, _e in pairs]
    Y = [name("E", e) for _q, e in pairs]
    Z = [f"Q[{u}]" for u in g.univalent_edges]
    return X, Y, Z


def test_e_lattice_round_trip(g2c, g2b, g3c):
    rng = random.Random(8)
    for g in (g2c, g2b, g3c):
        basis = g.e_lattice_basis()
        n = len(g.internal_edges)
        assert len(basis) == n
        for _ in range(40):
            coords = [rng.randrange(-3, 4) for _ in range(n)]
            vec = tuple(sum(c * b[i] for c, b in zip(coords, basis)) for i in range(n))
            assert g.lambda_member(vec)
            back = e_decompose(g, vec)
            assert back == coords
        # decomposable iff parity member
        for _ in range(40):
            k = tuple(rng.randrange(-4, 5) for _ in range(n))
            assert (e_decompose(g, k) is not None) == g.lambda_member(k)


def test_even_pairing(g2c, g2b, g3c):
    # the integer pairing between the E-exponent lattice and the Q-monomial
    # lattice is even: this is what lets per-edge clock/shift operators
    # represent the even subalgebra without sign corrections
    rng = random.Random(13)
    for g in (g2c, g2b, g3c):
        eb = g.e_lattice_basis()
        qb = g.q_lattice_basis()
        for k in eb:
            for m in qb:
                assert sum(a * b for a, b in zip(k, m)) % 2 == 0
        n = len(g.internal_edges)
        for _ in range(60):
            ck = [rng.randrange(-2, 3) for _ in eb]
            cm = [rng.randrange(-2, 3) for _ in qb]
            k = tuple(sum(c * b[i] for c, b in zip(ck, eb)) for i in range(n))
            m = tuple(sum(c * b[i] for c, b in zip(cm, qb)) for i in range(n))
            assert sum(a * b for a, b in zip(k, m)) % 2 == 0


def test_generator_sets_one_boundary(g2b):
    X, Y, Z = generator_sets(g2b)
    assert X == ["Q[a0]^2", "Q[a1]*Q[b1]", "Q[a1]*Q[b1]^-1", "Q[c1]"]
    assert Y == ["E[a0]", "E[a1]*E[b1]", "E[a1]*E[b1]^-1", "E[c1]^2"]
    assert Z == ["Q[c2]"]
    assert len(X) == 3 * 2 - 2  # Weyl pair count


def test_generator_sets_closed(g2c):
    X, Y, Z = generator_sets(g2c)
    assert X == ["Q[a0]^2", "Q[a1]^2", "Q[c1]"]
    assert Y == ["E[a0]", "E[a1]", "E[c1]^2"]
    assert Z == []
    assert len(X) == 3 * 2 - 3


def test_weyl_pair_count_genus3(g3c):
    X, Y, Z = generator_sets(g3c)
    assert len(X) == len(Y) == 3 * 3 - 3
    assert Z == []


def test_catalogue_genus2_closed(g2c):
    cat = g2c.curve_catalogue()
    assert set(cat) == {"alpha[a0]", "alpha[a1]", "alpha[c1]", "beta[1]", "beta[2]",
                        "gamma[1]", "tau[c1]", "taubar[c1]"}
    assert cat["beta[1]"].edges == ("a0", "c1")
    assert cat["beta[2]"].edges == ("a1", "c1")
    gam = cat["gamma[1]"]
    assert gam.edges == ("c1", "a0", "a1", "a1", "a0")  # (c, d1, d2, d3, d4)


def test_catalogue_genus1_one_boundary(g1b):
    cat = g1b.curve_catalogue()
    assert set(cat) == {"alpha[a0]", "beta[1]"}
    assert cat["beta[1]"].edges == ("a0", "c1")  # adjacent edge is the boundary tail


def test_intersection_metadata(g2c):
    cat = g2c.curve_catalogue()
    assert all(v == 0 for v in g2c.intersection_vector(cat["alpha[a0]"]).values())
    assert g2c.intersection_vector(cat["beta[1]"]) == {"a0": 1, "a1": 0, "c1": 0}
    assert g2c.intersection_vector(cat["gamma[1]"])["c1"] == 2
    assert g2c.intersection_vector(cat["tau[c1]"])["c1"] == 2


def test_catalogue_two_cycle_sides(g3c):
    cat = g3c.curve_catalogue()
    b2 = cat["beta[2]"]
    assert b2.kind == "two_cycle"
    assert b2.edges == ("a1", "b1", "c1", "c2")
    # the separating family at c2 sees the handle as (d1, d4)
    g2_ = cat["gamma[2]"]
    assert g2_.edges == ("c2", "a1", "a2", "a2", "b1")


def test_catalogue_is_built_once_per_graph(monkeypatch):
    builds, reads = [], []
    build = SausageGraph._build_catalogue
    monkeypatch.setattr(SausageGraph, "_build_catalogue",
                        lambda self: builds.append(self) or build(self))
    g = SausageGraph(3, False)
    assert builds == [g]
    assert g.curve_catalogue() is g.curve_catalogue()
    t = SigmaTable(g)
    assert t.catalogue is g.curve_catalogue()
    # parsing reads the stored dict by name: no build, no call to the accessor
    read = SausageGraph.curve_catalogue
    monkeypatch.setattr(SausageGraph, "curve_catalogue",
                        lambda self: reads.append(self) or read(self))
    value = parse_expression("sigma(alpha[a0]) + sigma(beta[2]) * sigma(gamma[1])"
                             " - sigma(t[c1] tau[c1]) + sigma(taubar[c2])", g, t)
    assert not value.is_zero()
    assert builds == [g] and reads == []


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("closed", [True, False])
def test_r0_exponent_ok_matches_dense_pairing(genus, closed):
    # the reference pairs the Q-part with every dense E-lattice basis vector
    g = SausageGraph(genus, closed)
    basis, q_basis = g.e_lattice_basis(), g.q_lattice_basis()
    n = len(g.internal_edges)
    rng = random.Random(100 * genus + closed)
    for _ in range(200):
        exp = tuple(rng.randrange(-5, 6) for _ in range(g.ctx.nvars))
        q = exp[1:1 + n]
        dense = all(sum(a * b for a, b in zip(q, k)) % 2 == 0 for k in basis)
        assert g.r0_exponent_ok(exp) == dense, exp
        # a Q-lattice vector, with any A and boundary exponents
        coords = [rng.randrange(-3, 4) for _ in q_basis]
        qv = [sum(c * v[i] for c, v in zip(coords, q_basis)) for i in range(n)]
        full = (rng.randrange(-3, 4), *qv) + tuple(rng.randrange(-3, 4)
                                                   for _ in g.univalent_edges)
        assert g.r0_exponent_ok(full)
