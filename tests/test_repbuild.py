"""Representations: construction, evaluation, shadows, commutants."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial

import pytest

from skeintorus import (
    Cyclo, CycloField, QTElem, LPoly, Frac, build_rep, genericity_check, eval_element,
    chebyshev_T, classical_shadow, shadow_scalar, verify_cshadow,
    irreducibility_commutant, find_intertwiner, gauge_shift, CMatrix, ContextMismatch,
    DimensionError, GenericityError, MembershipError, ReducibleError, u_poly, Rep, RepSpace,
    SausageGraph, SigmaTable, SpecializationError, specialize_cyclotomic, twist_image,
)
from skeintorus import repbuild
from skeintorus.exactalg import eval_frac
from skeintorus.cli import main


@pytest.fixture(scope="module")
def field3():
    return CycloField(3)


@pytest.fixture(scope="module")
def rep2c(g2c):
    return build_rep(g2c, 3, {"a0": 2, "a1": 5, "c1": 3})


@pytest.fixture(scope="module")
def rep2b(g2b):
    return build_rep(g2b, 3, {"a0": 2, "a1": 5, "b1": 7, "c1": 3}, boundary=11)


def test_genericity_pass(g2c, field3):
    assert genericity_check({e: field3.from_rational(v) for e, v in
                             zip(g2c.internal_edges, (2, 5, 3))}, g2c) == []


def test_genericity_trace_two(g2c, field3):
    x = {e: field3.from_rational(v) for e, v in zip(g2c.internal_edges, (1, 5, 3))}
    assert {"check": "eqG2", "edge": "a0"} in genericity_check(x, g2c)


def test_genericity_vertex_product_one(g2b, field3):
    # 2 * 3 * (1/6) = 1 at the vertex (c1, a1, b1) forces a failure
    x = {"a0": field3.from_rational(7), "a1": field3.from_rational(2),
         "b1": field3.from_rational(3), "c1": field3.from_rational(Fraction(1, 6))}
    diags = genericity_check(x, g2b)
    assert any(d["check"] == "eqG1" and set(d["vertex"]) == {"c1", "a1", "b1"}
               for d in diags)


def test_build_rep_rejects_nongeneric(g2c):
    with pytest.raises(GenericityError):
        build_rep(g2c, 3, {"a0": 1, "a1": 5, "c1": 3})


@pytest.mark.parametrize("x, y, boundary, message", [
    ({"a0": 2, "a1": 5, "c1": 3, "zz": 4}, None, None, "x assigns to 'zz'"),
    ({"a0": 2, "a1": 5, "c1": 3}, {"qq": 2}, None, "y assigns to 'qq'"),
    ({"a0": 2, "a1": 5}, None, None, "x has no value for the internal edge 'c1'"),
    ({"a0": 2, "a1": 5, "c1": 3}, None, 5, "the closed genus-2 graph has none"),
], ids=["unknown-x", "unknown-y", "missing-x", "closed-boundary"])
def test_build_rep_refuses_keys_outside_the_graph(x, y, boundary, message, g2c):
    with pytest.raises(ValueError, match=message):
        build_rep(g2c, 3, x, y=y, boundary=boundary)


def test_build_rep_checks_keys_before_the_dimension(g2c):
    # p = 1001 would also be refused for its dimension
    with pytest.raises(ValueError, match="'zz'"):
        build_rep(g2c, 1001, {"a0": 2, "a1": 5, "c1": 3, "zz": 4})


def test_zero_boundary_is_nongeneric(g1b, g2b, field3):
    diags = genericity_check({"a0": field3.from_rational(2)}, g1b, field3.zero)
    assert diags == [{"check": "nonzero", "edge": g1b.univalent_edges[0]}]
    with pytest.raises(GenericityError, match="nonzero"):
        build_rep(g2b, 3, {"a0": 2, "a1": 5, "b1": 7, "c1": 3}, boundary=0)


def _count_tables(monkeypatch) -> list:
    """The sigma tables built from now on, in the order built."""
    built, real_init = [], SigmaTable.__init__

    def counting_init(self, graph):
        built.append(self)
        real_init(self, graph)

    monkeypatch.setattr(SigmaTable, "__init__", counting_init)
    return built


def test_build_rep_builds_one_table_of_its_graph(g2c, monkeypatch):
    built = _count_tables(monkeypatch)
    rep = build_rep(g2c, 3, {"a0": 2, "a1": 5, "c1": 3})
    assert built == [rep.table]
    assert rep.graph is rep.table.graph is g2c


@pytest.mark.parametrize("p, x, error", [
    (1001, {"a0": 2, "a1": 5, "c1": 3}, DimensionError),
    (3, {"a0": 2, "a1": 5, "c1": 3, "zz": 4}, ValueError),
    (3, {"a0": 1, "a1": 5, "c1": 3}, GenericityError),
], ids=["dimension", "unknown-edge", "nongeneric"])
def test_a_refused_build_builds_no_table(p, x, error, g2c, monkeypatch):
    built = _count_tables(monkeypatch)
    with pytest.raises(error):
        build_rep(g2c, p, x)
    assert built == []


def test_derived_reps_keep_the_table(rep2c, field3):
    for other in (gauge_shift(rep2c), gauge_shift(rep2c, {"a0": 1}, {"c1": 2}),
                  replace(rep2c, y={**rep2c.y, "a0": field3.from_rational(2)})):
        assert other.table is rep2c.table and other.graph is rep2c.graph


def test_dimensions(rep2c, rep2b):
    assert rep2c.dim == 27   # p^{3g-3} closed
    assert rep2b.dim == 81   # p^{3g-2} one boundary


def test_clock_shift_relations(rep2c):
    F = rep2c.field
    p = rep2c.p
    for e in rep2c.graph.internal_edges:
        Q, E = rep2c.q_matrix(e), rep2c.e_matrix(e)
        assert Q * E == (E * Q).scale(F.minus_a_power(1))
        Ep = E
        for _ in range(p - 1):
            Ep = Ep * E
        assert Ep.scalar_value() == rep2c.y[e] ** p
        Q2p = Q
        for _ in range(2 * p - 1):
            Q2p = Q2p * Q
        assert Q2p.scalar_value() == rep2c.x[e] ** (2 * p)
        for f in rep2c.graph.internal_edges:
            if f != e:
                assert Q * rep2c.e_matrix(f) == rep2c.e_matrix(f) * Q
                assert E * rep2c.e_matrix(f) == rep2c.e_matrix(f) * E


def _q_mono(rep, exps):
    # diagonal entry at basis index j is prod_e (x_e (-A)^{j_e})^{k_e}
    F = rep.field
    diag = []
    for tup in rep.space.tuples:
        v = F.one
        for e, k in exps.items():
            i = rep.graph.internal_edges.index(e)
            v = v * (rep.x[e] * F.minus_a_power(tup[i])) ** k
        diag.append(v)
    return CMatrix(rep.space, {rep.space.zero_shift: diag})


def _e_mono(rep, exps):
    return eval_element(QTElem.e_monomial(rep.graph, exps), rep)


def test_weyl_pairs_at_xi_squared(rep2c, rep2b):
    # each generator pair satisfies X Y = xi^2 Y X; distinct pairs commute
    for rep in (rep2c, rep2b):
        xi2 = rep.field.a_power(2)
        pairs = rep.graph.weyl_pairs()
        mats = [(_q_mono(rep, qx), _e_mono(rep, ye)) for qx, ye in pairs]
        for i, (X, Y) in enumerate(mats):
            assert X * Y == (Y * X).scale(xi2)
            for j, (X2, Y2) in enumerate(mats):
                if i != j:
                    assert X * Y2 == Y2 * X
                    assert X * X2 == X2 * X
                    assert Y * Y2 == Y2 * Y


def test_eval_identity_and_membership_guard(g2c, rep2c):
    assert eval_element(QTElem.one(g2c), rep2c) == CMatrix.identity(rep2c.space)
    with pytest.raises(MembershipError):
        eval_element(QTElem.e_monomial(g2c, {"c1": 1}), rep2c)


def test_eval_element_refuses_an_element_of_another_graph(g2c, rep2c, t2b, t3c):
    # closed genus 3 has six edges to the representation's three, and
    # one-boundary genus 2 a boundary variable the closed graph lacks
    for t, name in ((t3c, "beta[1]"), (t2b, "beta[2]")):
        with pytest.raises(ContextMismatch, match="different graphs"):
            eval_element(t.image(t.graph.curve_by_name(name)), rep2c)
    # another graph object of the same shape shares the torus
    curve = g2c.curve_by_name("beta[1]")
    twin = SigmaTable(SausageGraph(2, True))
    assert twin.graph is not g2c
    assert eval_element(twin.image(curve), rep2c) == eval_element(rep2c.table.image(curve), rep2c)


def test_eval_pants_eigenvalues(g2c, t2c, rep2c):
    # eigenvalue on the k-th clock level is -(x^2 A^{2k+2} + x^-2 A^{-2k-2})
    M = eval_element(t2c.image(g2c.curve_by_name("alpha[a0]")), rep2c)
    assert M.is_diagonal()
    F = rep2c.field
    x = rep2c.x["a0"]
    diag = M.parts[rep2c.space.zero_shift]
    i = g2c.internal_edges.index("a0")
    for j, tup in enumerate(rep2c.space.tuples):
        k = tup[i]
        expect = -(x * x * F.a_power(2 * k + 2) + (x * x).inv() * F.a_power(-2 * k - 2))
        assert diag[j] == expect


def test_eval_multiplicative(g2c, t2c, rep2c):
    rng = random.Random(19)
    pool = [t2c.image(g2c.curve_by_name(n)) for n in ("alpha[a0]", "beta[1]", "gamma[1]")]
    pool.append(QTElem.e_monomial(g2c, {"a0": 1}))
    pool.append(QTElem.e_monomial(g2c, {"c1": 2}))
    pool.append(QTElem.scalar(g2c, Frac.make(
        LPoly.monomial(g2c.ctx, {"Q[a0]": 2}), [u_poly(g2c.ctx, {"Q[a0]": 2}, 2)])))
    for _ in range(12):
        x, y = rng.choice(pool), rng.choice(pool)
        assert eval_element(x * y, rep2c) == eval_element(x, rep2c) * eval_element(y, rep2c)
    # beta[1]^5 has the denominator factor U(A^10 Q[a0]^2)
    beta = pool[1]
    b = eval_element(beta, rep2c)
    assert eval_element(beta ** 5, rep2c) == b * b * b * b * b


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "boundary"])
@pytest.mark.parametrize("p", [3, 5])
def test_eval_multiplicative_under_gauge(p, closed, g2c, t2c, g2b, t2b):
    """eval_element is multiplicative where the gauge scalars are not 1, so
    each term's coefficient prod y_e^{k_e} is folded into its own values; the
    pool includes two terms on one shift mod p, which are summed."""
    g, t = (g2c, t2c) if closed else (g2b, t2b)
    ctx = g.ctx
    gauge = dict(zip(g.internal_edges, ("3/2", "2", "A^2", "2")))
    r = build_rep(g, p, dict(zip(g.internal_edges, (2, 5, 7, 3))), y=gauge,
                  boundary=None if closed else 11)
    coeff = Frac.make(LPoly.monomial(ctx, {"Q[a0]": 2}), [u_poly(ctx, {"Q[a0]": 2}, 2)])
    first = QTElem.e_monomial(g, {"a0": 1}, coeff)
    second = QTElem.e_monomial(g, {"a0": 1 + p}, Frac.make(LPoly.const(ctx, 3),
                                                           [u_poly(ctx, {"Q[a1]": 2}, 1)]))
    two_terms = first + second
    M = eval_element(two_terms, r)
    assert len(two_terms.terms) == 2 and len(M.parts) == 1
    assert M == eval_element(first, r) + eval_element(second, r)
    assert eval_element(QTElem.e_monomial(g, {"c1": 2}), r) == r.e_matrix("c1") * r.e_matrix("c1")
    assert eval_element(QTElem.e_monomial(g, {"a0": -1}), r) * r.e_matrix("a0") \
        == CMatrix.identity(r.space)
    pool = [t.image(g.curve_by_name(n)) for n in ("alpha[a0]", "beta[1]", "beta[2]", "gamma[1]")]
    pool += [t.image(g.curve_by_name("beta[1]").twisted("a0", 1)), two_terms,
             QTElem.e_monomial(g, {"c1": 2})]
    rng = random.Random(1800 + 10 * p + closed)
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        assert eval_element(a * b, r) == eval_element(a, r) * eval_element(b, r)


def test_chebyshev_basics(rep2c):
    space = rep2c.space
    F = rep2c.field
    assert chebyshev_T(0, CMatrix.identity(space)) == CMatrix.identity(space).mul_int(2)
    # T_3(x) = x^3 - 3x on a scalar u + u^-1 with u = 2: T_3(5/2) = 65/8
    u = F.from_rational(2)
    M = CMatrix.scalar(space, u + u.inv())
    expect = F.from_rational(Fraction(2) ** 3 + Fraction(1, 8))
    assert chebyshev_T(3, M).scalar_value() == expect


def test_chebyshev_pants_scalar(g2c, t2c, rep2c):
    # T_p(alpha) = -(x^{2p} + x^{-2p}) Id: for x = 2, p = 3 this is -4097/64
    M = eval_element(t2c.image(g2c.curve_by_name("alpha[a0]")), rep2c)
    S = chebyshev_T(3, M)
    assert S.scalar_value() == rep2c.field.from_rational(-(Fraction(64) + Fraction(1, 64)))
    assert classical_shadow(g2c.curve_by_name("alpha[a0]"), rep2c) \
        == rep2c.field.from_rational(Fraction(64) + Fraction(1, 64))


def test_chebyshev_scalar_for_all_curves(g2c, t2c, rep2c):
    for name in sorted(t2c.catalogue):
        shadow_scalar(t2c.catalogue[name], rep2c)  # raises if not scalar


def _chebyshev_references(M):
    """T_0(M), T_1(M), ... by the plain recurrence on dense products
    (``_dense_mul`` over ``_to_dense``), not the shift-diagonal product that
    ``chebyshev_T`` shares with ``CMatrix.__mul__``."""
    space, F = M.space, M.space.field
    m = _to_dense(M)
    prev = [[F.from_rational(2 * (r == c)) for c in range(space.dim)] for r in range(space.dim)]
    cur = m
    while True:
        yield _from_dense(space, prev)
        prev, cur = cur, [[x - y if y else x for x, y in zip(rx, ry)]
                          for rx, ry in zip(_dense_mul(m, cur), prev)]


def _chebyshev_reference(k, M):
    """T_|k|(M) by the plain recurrence on CMatrix products."""
    return next(itertools.islice(_chebyshev_references(M), abs(k), None))


def test_chebyshev_negative_degree(g2c, t2c, rep2c):
    # T_{-k} = T_k under T_k(u + u^-1) = u^k + u^-k
    M = eval_element(t2c.image(g2c.curve_by_name("beta[1]")), rep2c)
    assert not M.is_diagonal()
    for k in (2, 3):
        assert chebyshev_T(-k, M).parts == chebyshev_T(k, M).parts
        assert chebyshev_T(-k, M).parts == _chebyshev_reference(k, M).parts


def _random_entry(rng, F):
    if rng.random() < 0.2:
        return F.zero
    return F.from_coeffs([Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3, 5, 9)))
                          for _ in range(F.deg)])


def _random_tensor_matrix(rng, space, touched):
    """A random M' (x) I: shifts and diagonals depend on the touched edges only."""
    F = space.field
    parts = {}
    for _ in range(rng.randrange(1, 4)):
        shift = tuple(rng.randrange(space.p) if i in touched else 0 for i in range(space.n))
        values = {}
        parts[shift] = [values.setdefault(tuple(t[i] for i in touched), _random_entry(rng, F))
                        for t in space.tuples]
    return CMatrix(space, {s: d for s, d in parts.items() if any(d)})


@pytest.mark.parametrize("p, n_edges", [(3, 3), (5, 2), (7, 1), (7, 2), (9, 1), (9, 2)])
def test_chebyshev_kernel_matches_reference(p, n_edges):
    # p = 9 is composite: Phi_18 has degree 6; entries have mixed denominators
    F = CycloField(p)
    space = RepSpace(F, n_edges)
    rng = random.Random(900 + p)
    for n_touched in range(1, n_edges + 1):
        for _ in range(3):
            touched = sorted(rng.sample(range(n_edges), n_touched))
            M = _random_tensor_matrix(rng, space, touched)
            for k, ref in zip(range(p + 2), _chebyshev_references(M)):
                assert chebyshev_T(k, M).parts == ref.parts, (touched, k)
    # invariant along the untouched edges at every basis vector but the last
    # one: the kernel must see that entry and run on the full space
    M = _random_tensor_matrix(rng, space, [0])
    while M.is_zero():
        M = _random_tensor_matrix(rng, space, [0])
    shift, d = next(iter(M.parts.items()))
    M.parts[shift] = d[:-1] + [d[-1] + F.one]
    for k, ref in zip(range(p + 2), _chebyshev_references(M)):
        assert chebyshev_T(k, M).parts == ref.parts, k


@pytest.mark.parametrize("p, n_edges, s", [(3, 2, (1, 2)), (5, 2, (0, 3)), (7, 1, (2,)),
                                          (9, 1, (3,)), (9, 2, (3, 1))],
                         ids=["3-2", "5-2-one-edge", "7-1", "9-1", "9-2"])
def test_chebyshev_of_shift_pair_closed_form(p, n_edges, s):
    """T_k(y P_s + y^-1 P_-s) = y^k P_ks + y^-k P_-ks for the shift P_s, and
    (y^k + y^-k) I when ks = 0 mod p: the middle parts of the recurrence
    cancel and are dropped."""
    F = CycloField(p)
    space = RepSpace(F, n_edges)
    y = F.from_coeffs([Fraction(2, 3), Fraction(-1, 5)])
    yi = y.inv()

    def neg(t):
        return tuple(-a % p for a in t)

    M = CMatrix(space, {s: [y] * space.dim, neg(s): [yi] * space.dim})
    for k in range(p + 2):
        ks = tuple(k * a % p for a in s)
        if any(ks):
            want = {ks: [y ** k] * space.dim, neg(ks): [yi ** k] * space.dim}
        else:
            want = {ks: [y ** k + yi ** k] * space.dim}
        assert chebyshev_T(k, M).parts == want, k


def test_broken_block_is_not_scalar(g2c, t2c, rep2c):
    # beta[1] does not touch a1, so T_p runs on the (a0, c1) factors; a wrong
    # entry in one block with a1 != 0 (the last basis vector's) must still
    # make T_p non-scalar
    curve = g2c.curve_by_name("beta[1]")
    M = eval_element(t2c.image(curve), rep2c)
    shadow_scalar(curve, replace(rep2c))
    assert rep2c.space.tuples[-1][rep2c.graph.edge_index["a1"]] != 0
    shift, d = next(iter(M.parts.items()))
    broken = CMatrix(rep2c.space, {**M.parts, shift: d[:-1] + [d[-1] + rep2c.field.one]})
    # a fresh Rep whose cached matrix of the curve is the broken one
    rep = replace(rep2c)
    rep._matrices[curve] = broken
    with pytest.raises(AssertionError, match="is not scalar"):
        shadow_scalar(curve, rep)


def test_shadow_scalar_evaluates_the_image_in_the_reps_table(g2c, rep2c, monkeypatch):
    rep, seen, real_eval = replace(rep2c), [], repbuild.eval_element

    def recording_eval(x, r):
        seen.append(x)
        return real_eval(x, r)

    monkeypatch.setattr(repbuild, "eval_element", recording_eval)
    curve = g2c.curve_by_name("beta[1]").twisted("a0", 1)
    shadow_scalar(curve, rep)
    assert len(seen) == 1 and seen[0] is rep.table.image(curve)


def test_twisted_curve_shadow_scalar(g1b):
    rep = build_rep(g1b, 3, {"a0": 2}, boundary=1)
    curve = g1b.curve_by_name("beta[1]").twisted("a0", 1)
    shadow_scalar(curve, rep)  # scalar as well


@pytest.mark.parametrize("name", ["beta[1]", "beta[2]", "gamma[1]"])
def test_twisted_shadow_scalars_are_checked(name, rep2b, monkeypatch):
    # every untwisted scalar is cached, so T_p runs only on twisted curves;
    # returning its argument leaves a matrix that is not scalar
    table = rep2b.table
    for curve in table.catalogue.values():
        shadow_scalar(curve, rep2b)
    curve = table.catalogue[name]
    monkeypatch.setattr(table, "catalogue", {name: curve})
    monkeypatch.setattr(repbuild, "chebyshev_T", lambda k, M: M)
    with pytest.raises(AssertionError, match="is not scalar") as exc:
        verify_cshadow(rep2b)
    assert str(curve.twisted(curve.edges[0], 1)) in str(exc.value)


@pytest.mark.parametrize("shape", ["closed", "one boundary"])
def test_twisted_shadow_scalar_matches_twisted_image(shape, t2c, rep2c, t2b, rep2b):
    # the reference twists the image and evaluates it, outside every cache
    t, rep = (t2c, replace(rep2c)) if shape == "closed" else (t2b, replace(rep2b))
    checked = 0
    for curve in t.catalogue.values():
        if curve.kind not in ("one_cycle", "two_cycle", "separating"):
            continue
        a, b = curve.edges[:2]
        words = {"one_cycle": [((a, 1),)],
                 "two_cycle": [((a, 1),), ((b, 1),), ((a, 1), (b, 1))],
                 "separating": [((a, 1),), ((a, -1),)]}[curve.kind]
        for word in words:
            twisted, img = curve, t.image(curve)
            for edge, sign in reversed(word):
                twisted, img = twisted.twisted(edge, sign), twist_image(img, edge, sign, t)
            want = chebyshev_T(3, eval_element(img, rep)).scalar_value()
            assert want is not None
            assert shadow_scalar(twisted, rep) == want, twisted
            checked += 1
    assert checked == (4 if shape == "closed" else 6)


def test_verify_cshadow_all_graphs(g1b, g2c, g2b):
    r1 = build_rep(g1b, 3, {"a0": 2}, y={"a0": 4}, boundary=1)
    assert verify_cshadow(r1).all_pass
    r2 = build_rep(g2c, 3, {"a0": 2, "a1": 5, "c1": 3}, y={"a0": 2, "a1": 3, "c1": 4})
    assert verify_cshadow(r2).all_pass
    r3 = build_rep(g2b, 3, {"a0": 2, "a1": 5, "b1": 7, "c1": 3},
                   y={"a0": 2, "a1": 3, "b1": 5, "c1": 4}, boundary=11)
    assert verify_cshadow(r3).all_pass


def test_commutant_dimensions(rep2c):
    assert irreducibility_commutant(rep2c) == 1


def test_intertwiner_self_and_gauge(g2c, rep2c):
    T = find_intertwiner(rep2c, rep2c)
    assert T is not None
    rng = random.Random(41)
    for _ in range(3):
        j = {e: rng.randrange(3) for e in g2c.internal_edges}
        m = {e: rng.randrange(3) for e in g2c.internal_edges}
        other = gauge_shift(rep2c, j, m)
        assert find_intertwiner(rep2c, other) is not None


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "boundary"])
def test_intertwiner_intertwines(closed, g2c, t2c, rep2c, g2b, t2b, rep2b):
    g, t, rep = (g2c, t2c, rep2c) if closed else (g2b, t2b, rep2b)
    rng = random.Random(43)
    for _ in range(3):
        j = {e: rng.randrange(3) for e in g.internal_edges}
        m = {e: rng.randrange(3) for e in g.internal_edges}
        other = gauge_shift(rep, j, m)
        T = find_intertwiner(rep, other)
        assert T is not None
        for name, curve in t.catalogue.items():
            M1 = repbuild._curve_matrix(curve, rep)
            M2 = repbuild._curve_matrix(curve, other)
            assert T * M1 == M2 * T, (j, m, name)
        # one nonzero entry in each row and each column: T is invertible
        cells = [rc for rc, _v in T.entries()]
        assert sorted(r for r, _c in cells) == list(range(rep.dim))
        assert sorted(c for _r, c in cells) == list(range(rep.dim))


def test_intertwiner_rejects_mismatched_center(rep2c, field3):
    mism = replace(rep2c, y={**rep2c.y, "a0": field3.from_rational(2)})
    assert find_intertwiner(rep2c, mism) is None


def _find_intertwiner_reference(r1, r2):
    """The weighted union-find solver that find_intertwiner replaced: it
    solves t_u M1[u, c] = M2[pi u, pi c] t_c with t_j = weight[j] t_parent[j],
    tests each equation as it merges, and marks zero-forced components."""
    space, field = r1.space, r1.field
    catalogue = r1.table.catalogue
    names = sorted(catalogue)
    mats1 = [repbuild._curve_matrix(catalogue[n], r1) for n in names]
    mats2 = [repbuild._curve_matrix(catalogue[n], r2) for n in names]

    def labels(mats):
        diag = [M.parts[space.zero_shift] for M in mats if M.is_diagonal()]
        return [tuple(d[j] for d in diag) for j in range(space.dim)]

    lab1, lab2 = labels(mats1), labels(mats2)
    pos2 = {lab: rr for rr, lab in enumerate(lab2)}
    assert len(pos2) == space.dim and len(set(lab1)) == space.dim
    if any(lab not in pos2 for lab in lab1):
        return None
    pi = [pos2[lab] for lab in lab1]
    pi_inv = [0] * space.dim
    for c, rr in enumerate(pi):
        pi_inv[rr] = c
    equations = []
    for M1, M2 in zip(mats1, mats2):
        lhs = dict(M1.entries())
        rhs = {(pi_inv[rr], pi_inv[cc]): v for (rr, cc), v in M2.entries()}
        equations.extend((u, c, lhs.get((u, c), field.zero), rhs.get((u, c), field.zero))
                         for u, c in {**lhs, **rhs})
    parent = list(range(space.dim))
    weight = [field.one] * space.dim

    def find(a):
        if parent[a] == a:
            return a, field.one
        root, w = find(parent[a])
        weight[a] = weight[a] * w
        parent[a] = root
        return root, weight[a]

    inv = cache(Cyclo.inv)
    zero_forced = set()
    for u, c, a, b in equations:
        if a.is_zero():
            zero_forced.add(c)
        elif b.is_zero():
            zero_forced.add(u)
        else:
            (ru, wu), (rc, wc) = find(u), find(c)
            q = b * inv(a)
            if ru == rc:
                if wu != q * wc:
                    zero_forced.add(ru)
            else:
                parent[ru] = rc
                weight[ru] = inv(wu) * q * wc
    zero_roots = {find(j)[0] for j in zero_forced}
    free = {find(j)[0] for j in range(space.dim)} - zero_roots
    if not free:
        return None
    assert len(free) == 1, "the reference found a reducible representation"
    root = next(iter(free))
    tval = []
    for j in range(space.dim):
        rj, wj = find(j)
        if rj != root:
            return None
        tval.append(wj)
    if any(tval[u] * a != b * tval[c] for u, c, a, b in equations):
        return None
    parts = {}
    for c, rr in enumerate(pi):
        shift = tuple((a - b) % r1.p for a, b in zip(space.tuples[rr], space.tuples[c]))
        parts.setdefault(shift, [field.zero] * space.dim)[c] = tval[c]
    return CMatrix(space, parts)


def _partners(rep, seed):
    """The representation itself, five seeded gauge shifts, and one with a
    mismatched centre: the first gauge scalar doubled, so its p-th power moves."""
    rng = random.Random(seed)
    edges = rep.graph.internal_edges
    out = [rep]
    for _ in range(5):
        out.append(gauge_shift(rep, {e: rng.randrange(rep.p) for e in edges},
                               {e: rng.randrange(rep.p) for e in edges}))
    out.append(replace(rep, y={**rep.y, edges[0]: rep.y[edges[0]] * rep.field.from_rational(2)}))
    return out


def _assert_equal_up_to_scalar(T, R):
    t_entries, r_entries = dict(T.entries()), dict(R.entries())
    assert t_entries.keys() == r_entries.keys()
    key = next(iter(t_entries))
    assert T.scale(r_entries[key] * t_entries[key].inv()) == R


@pytest.mark.parametrize("p, closed", [(3, True), (3, False), (5, True), (5, False)])
def test_intertwiner_matches_reference(p, closed, g2c, g2b):
    g = g2c if closed else g2b
    rng = random.Random(f"reference:{p}:{closed}")
    primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23], len(g.internal_edges))
    rep = build_rep(g, p, dict(zip(g.internal_edges, primes)),
                    y={e: rng.choice([1, 2, 3]) for e in g.internal_edges},
                    boundary=None if closed else 29)
    assert irreducibility_commutant(rep) == 1
    found = []
    for other in _partners(rep, rng.randrange(10 ** 6)):
        T = find_intertwiner(rep, other)
        R = _find_intertwiner_reference(rep, other)
        assert (T is None) == (R is None)
        if T is not None:
            _assert_equal_up_to_scalar(T, R)
        found.append(T is not None)
    assert found == [True] * 6 + [False]


@pytest.mark.parametrize("change", ["value", "zero"])
def test_intertwiner_rejects_one_broken_entry(change, g2c, rep2c):
    # every entry of beta[1] (all off the diagonal) under a gauge-shifted partner, in turn
    other = gauge_shift(rep2c, {"a0": 1, "a1": 2, "c1": 1}, {"a0": 2, "a1": 0, "c1": 1})
    assert find_intertwiner(rep2c, other) is not None
    key = g2c.curve_by_name("beta[1]")
    M = other._matrices[key]
    F = other.field
    broken = 0
    for shift, d in M.parts.items():
        if shift == other.space.zero_shift:
            continue
        for j, v in enumerate(d):
            if v.is_zero():
                continue
            parts = {k: list(row) for k, row in M.parts.items()}
            parts[shift][j] = v + F.one if change == "value" else F.zero
            mutated = replace(other)
            mutated._matrices.update(other._matrices)
            mutated._matrices[key] = CMatrix(other.space, parts)
            assert find_intertwiner(rep2c, mutated) is None, (shift, j)
            assert _find_intertwiner_reference(rep2c, mutated) is None, (shift, j)
            broken += 1
    assert broken == 54


def test_intertwiner_off_tree_entry_fails_the_last_test(g2c, rep2c):
    """One entry of r2's cached beta[1] matrix that the spanning tree does not
    read is changed, the labels kept: the spectra match, no equation has a
    zero side and the equations stay connected, so find_intertwiner can
    return None only through its final test of every equation."""
    other = gauge_shift(rep2c, {"a0": 1, "a1": 2, "c1": 1}, {"a0": 2, "a1": 0, "c1": 1})
    assert find_intertwiner(rep2c, other) is not None
    _pi, before = repbuild._entry_equations(rep2c, other)
    key = g2c.curve_by_name("beta[1]")
    M = other._matrices[key]
    for shift, d in M.parts.items():
        for j, v in enumerate(d):
            if v.is_zero():
                continue
            parts = {k: list(row) for k, row in M.parts.items()}
            parts[shift][j] = v + v
            mutated = replace(other)
            mutated._matrices.update(other._matrices)
            mutated._matrices[key] = CMatrix(other.space, parts)
            _pi, equations = repbuild._entry_equations(rep2c, mutated)
            [changed] = [eq for eq, old in zip(equations, before) if eq != old]
            components = repbuild._components(rep2c.dim, equations)
            assert len(components) == 1 and all(a and b for _u, _c, a, b in equations)
            if all(eq is not changed for _v, eq in components[0][1:]):
                assert find_intertwiner(rep2c, mutated) is None, (shift, j)
                return
    pytest.fail("every entry of beta[1] is on the spanning tree")


def _with_matrices(rep, matrix_of):
    """A copy of rep whose cached matrix of every catalogued curve is
    matrix_of(the real matrix)."""
    other = replace(rep)
    for curve in rep.table.catalogue.values():
        other._matrices[curve] = matrix_of(repbuild._curve_matrix(curve, rep))
    return other


def test_intertwiner_degenerate_spectrum_raises(rep2c):
    # every curve acts as the identity: all basis vectors share one label
    flat = _with_matrices(rep2c, lambda M: CMatrix.identity(rep2c.space))
    with pytest.raises(NotImplementedError, match="degenerate"):
        find_intertwiner(flat, flat)


def test_intertwiner_missing_label_returns_none(g2c, rep2c):
    # another x at c1 changes the spectrum of alpha[c1]
    other = build_rep(g2c, 3, {"a0": 2, "a1": 5, "c1": 7})
    assert repbuild._entry_equations(rep2c, other) is None
    assert find_intertwiner(rep2c, other) is None


def test_intertwiner_split_equations_raise(rep2c):
    # diagonal parts only, the identity for a curve without one: each basis
    # vector is a component of its own
    space = rep2c.space
    diagonal = _with_matrices(rep2c, lambda M: CMatrix(space, {
        space.zero_shift: M.parts.get(space.zero_shift, [rep2c.field.one] * space.dim)}))
    with pytest.raises(ReducibleError, match=f"{rep2c.dim} components"):
        find_intertwiner(diagonal, diagonal)


def test_intertwiner_refuses_other_graph_or_root_order(rep2c, rep2b):
    with pytest.raises(ValueError, match="different graphs"):
        find_intertwiner(rep2c, rep2b)
    other_p = build_rep(rep2c.graph, 5, {"a0": 2, "a1": 5, "c1": 3})
    with pytest.raises(ValueError, match="different root orders"):
        find_intertwiner(rep2c, other_p)


def test_intertwiner_recovers_rational_diagonal_conjugation(rep2c):
    """r2's cached curve matrices are r1's conjugated by T = diag(t_j), the t_j
    rationals with mixed denominators: find_intertwiner returns T / t_0, so its
    last test compares sides whose denominators differ."""
    F, space = rep2c.field, rep2c.space
    rng = random.Random(1919)
    t = [F.from_rational(Fraction(rng.randrange(1, 9), rng.choice((1, 2, 3, 5, 7))))
         for _ in range(space.dim)]
    T = CMatrix(space, {space.zero_shift: t})
    T_inv = CMatrix(space, {space.zero_shift: [v.inv() for v in t]})
    other = replace(rep2c)
    for curve in rep2c.table.catalogue.values():
        other._matrices[curve] = T * repbuild._curve_matrix(curve, rep2c) * T_inv
    assert find_intertwiner(rep2c, other) == T.scale(t[0].inv())


def test_rep_json_round_trip(rep2b):
    js = rep2b.to_json()
    assert js["p"] == 3 and js["genus"] == 2 and js["closed"] is False and js["dim"] == 81
    assert set(js["x"]) == set(rep2b.graph.internal_edges)


# ---------------------------------------------------------------------------
# fast paths against their references
# ---------------------------------------------------------------------------

def _eval_poly_diag_reference(rep, poly):
    """Term by term and entry by entry: coeff A^e0 prod x^m (-A)^<j, m> on basis j."""
    space, field = rep.space, rep.field
    out = [field.zero] * space.dim
    slots = [poly.ctx.index[f"Q[{e}]"] for e in rep.graph.internal_edges]
    c_slot = poly.ctx.index.get("C[1]")
    for exp, coeff in poly.exp_items():
        base = field.from_rational(coeff) * field.a_power(exp[0])
        weights = []
        for i, (e, s) in enumerate(zip(rep.graph.internal_edges, slots)):
            me = exp[s]
            if me:
                base = base * rep.x[e] ** me
                weights.append((i, me))
        if c_slot is not None and exp[c_slot]:
            base = base * rep.boundary ** exp[c_slot]
        for jlin, t in enumerate(space.tuples):
            w = 0
            for i, me in weights:
                w += t[i] * me
            val = base * field.minus_a_power(w % rep.p) if w % rep.p else base
            out[jlin] = out[jlin] + val
    return out


def _eval_frac_diag(rep, fr, scale):
    """``scale`` times a fraction on the diagonal, on the tensor factors it
    touches, as eval_element evaluates each term."""
    return eval_frac(fr, rep.field, partial(repbuild._eval_poly_diag, rep), rep.space.lift, scale)


def _on_basis(rep, evaluated):
    """Values given on the tensor factors they touch, lifted to every basis vector."""
    edges, vals = evaluated
    return [vals[q] for q in rep.space.lift(edges)]


def _random_poly(rng, ctx, p, n_terms):
    """Random terms with exponents of both signs, plus c A^a Q^m + c A^(a+p) Q^m,
    which cancels (A^p = -1) and is alone in its class of Q-exponents mod p."""
    q_slots = [i for i, name in enumerate(ctx.names) if name.startswith("Q[")]
    terms = {}
    for _ in range(n_terms):
        terms[tuple(rng.randrange(-4, 5) for _ in ctx.names)] = rng.choice((-3, -2, -1, 1, 2, 5))
    used = {tuple(e[i] % p for i in q_slots) for e in terms}
    free = next(m for m in itertools.product(range(p), repeat=len(q_slots)) if m not in used)
    exp = [rng.randrange(-3, 4) for _ in ctx.names]
    for i, r in zip(q_slots, free):
        exp[i] = r - p
    terms[tuple(exp)] = terms[(exp[0] + p, *exp[1:])] = rng.choice((-2, 1, 3))
    return LPoly.from_exps(ctx, terms)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "boundary"])
@pytest.mark.parametrize("p", [3, 5, 9])
def test_grouped_diag_matches_reference(p, closed, t2c, t2b):
    t = t2c if closed else t2b
    g = t.graph
    F = CycloField(p)
    x = dict(zip(g.internal_edges, (F.from_coeffs([2, 1]), F.from_rational(5),
                                    F.from_rational(Fraction(3, 7)), F.from_rational(11))))
    space = RepSpace(F, len(g.internal_edges))
    rep = Rep(t, space, x, {e: F.one for e in x}, F.from_rational(Fraction(-2, 3)))
    rng = random.Random(500 + 10 * p + closed)
    n_polys = 6 if space.dim <= 729 else 1
    for _ in range(n_polys):
        poly = _random_poly(rng, g.ctx, p, rng.randrange(1, 9))
        assert _on_basis(rep, repbuild._eval_poly_diag(rep, poly)) \
            == _eval_poly_diag_reference(rep, poly)
    # a class that cancels completely evaluates to zero everywhere
    zero = LPoly.from_exps(g.ctx, {(0,) * len(g.ctx.names): 1,
                                   (p,) + (0,) * (len(g.ctx.names) - 1): 1})
    assert all(v.is_zero() for v in _on_basis(rep, repbuild._eval_poly_diag(rep, zero)))
    assert all(v.is_zero()
               for v in _on_basis(rep, repbuild._eval_poly_diag(rep, LPoly.zero(g.ctx))))
    # fractions: each entry is the quotient of the reference entries
    num = _random_poly(rng, g.ctx, p, 4)
    facs = [u_poly(g.ctx, {f"Q[{g.internal_edges[0]}]": 2}, 1),
            u_poly(g.ctx, {f"Q[{g.internal_edges[1]}]": 2, f"Q[{g.internal_edges[2]}]": -2})]
    fr = Frac.make(num, facs).mul_int(3)
    den = [F.from_rational(fr.den_const)] * space.dim
    for f, mult in fr.factors.values():
        den = [d * v ** mult for d, v in zip(den, _eval_poly_diag_reference(rep, f))]
    got = _on_basis(rep, _eval_frac_diag(rep, fr, F.one))
    assert [q * d for q, d in zip(got, den)] == _eval_poly_diag_reference(rep, fr.num)


def test_diagonal_entries_are_specializations(rep2c):
    """Entry j of a fraction's diagonal is its value at Q_e -> x_e (-A)^{j_e};
    both go through one evaluator, and a vanishing factor fails both alike."""
    rep, F = rep2c, rep2c.field
    ctx = rep.graph.ctx
    edges = rep.graph.internal_edges
    rng = random.Random(1111)

    def point(t):
        return {f"Q[{e}]": rep.x[e] * F.minus_a_power(t[i]) for i, e in enumerate(edges)}

    three_terms = LPoly.monomial(ctx, {"Q[a0]": 2}) + LPoly.monomial(ctx, {"A": 1, "Q[c1]": 1}) \
        + LPoly.const(ctx, 3)
    for _ in range(4):
        facs = [u_poly(ctx, {"Q[a0]": 2}, rng.randrange(-2, 3)),
                u_poly(ctx, {"Q[a1]": 2, "Q[c1]": -2}, 1), three_terms]
        fr = Frac.make(_random_poly(rng, ctx, rep.p, 5), rng.sample(facs, rng.randrange(1, 4)))
        fr = fr.mul_int(rng.choice((1, 3)))
        diag = _on_basis(rep, _eval_frac_diag(rep, fr, F.one))
        assert len(diag) == rep.space.dim and any(diag)
        for j, t in enumerate(rep.space.tuples):
            assert specialize_cyclotomic(fr, F, point(t)) == diag[j]
    # Q[a0] - 2 vanishes where j_a0 = 0, since x_a0 = 2
    fr = Frac.make(LPoly.const(ctx, 1), [LPoly.monomial(ctx, {"Q[a0]": 1}) - LPoly.const(ctx, 2)])
    with pytest.raises(SpecializationError) as on_diag:
        _eval_frac_diag(rep, fr, F.one)
    with pytest.raises(SpecializationError) as at_point:
        specialize_cyclotomic(fr, F, point((0, 1, 1)))
    assert str(on_diag.value) == str(at_point.value)
    assert on_diag.value.factor == at_point.value.factor
    assert specialize_cyclotomic(fr, F, point((1, 0, 0))) \
        == (rep.x["a0"] * F.minus_a_power(1) - F.from_rational(2)).inv()


def _to_dense(M):
    """The matrix as a list of rows of entries."""
    n = M.space.dim
    dense = [[M.space.field.zero] * n for _ in range(n)]
    for (r, c), v in M.entries():
        dense[r][c] = v
    return dense


def _from_dense(space, dense):
    """The shift-diagonal matrix of a list of rows, with no zero part."""
    parts = {}
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            if v:
                shift = tuple((a - b) % space.p for a, b in zip(space.tuples[r], space.tuples[c]))
                parts.setdefault(shift, [space.field.zero] * space.dim)[c] = v
    return CMatrix(space, parts)


def test_touched_evaluation_on_genus_three(g3c):
    """On closed genus 3 (six edges), a fraction whose factors touch one or
    two edges is evaluated on those factors only, and every sampled basis
    vector's value is the fraction's specialization there, gauge coefficient
    included.  A factor vanishing at one touched tuple fails as the point
    path does there."""
    rep = build_rep(g3c, 3, dict(zip(g3c.internal_edges, (2, 5, 7, 11, 13, 17))))
    F, ctx, edges = rep.field, g3c.ctx, g3c.internal_edges
    rng = random.Random(1803)
    scale = F.from_coeffs([Fraction(3, 2), 1])
    slots = [ctx.index[f"Q[{e}]"] for e in edges]

    def point(t):
        return {f"Q[{e}]": rep.x[e] * F.minus_a_power(t[i]) for i, e in enumerate(edges)}

    for _ in range(6):
        one, two = sorted(rng.sample(range(len(edges)), 2)), rng.sample(range(len(edges)), 2)
        facs = [u_poly(ctx, {f"Q[{edges[one[0]]}]": 2}, rng.randrange(-2, 3)),
                u_poly(ctx, {f"Q[{edges[two[0]]}]": 2, f"Q[{edges[two[1]]}]": -2}, 1)]
        num = LPoly.monomial(ctx, {f"Q[{edges[one[1]]}]": rng.choice((1, 2))}) \
            + LPoly.const(ctx, rng.choice((-2, 1, 3)))
        fr = Frac.make(num, rng.sample(facs, rng.randrange(1, 3))).mul_int(rng.choice((1, 5)))
        touched, vals = _eval_frac_diag(rep, fr, scale)
        exps = [e for poly in (fr.num, *(f for f, _m in fr.factors.values()))
                for e, _c in poly.exp_items()]
        assert touched == tuple(i for i in range(len(edges))
                                if any(e[slots[i]] % rep.p for e in exps))
        assert len(touched) <= 4 and len(vals) == rep.p ** len(touched)
        lifted = _on_basis(rep, (touched, vals))
        for j in rng.sample(range(rep.dim), 25):
            assert lifted[j] == scale * specialize_cyclotomic(fr, F, point(rep.space.tuples[j]))
    # Q[a1] + Q[b1] - x_a1 (-A) - x_b1 (-A)^2 vanishes only where (j_a1, j_b1) = (1, 2)
    vanishing = LPoly.monomial(ctx, {"Q[a1]": 1}) + LPoly.monomial(ctx, {"Q[b1]": 1}) \
        + LPoly.a_power(ctx, 1, 5) + LPoly.a_power(ctx, 2, -7)
    fr = Frac.make(LPoly.const(ctx, 1), [vanishing])
    zeros = [t for t in rep.space.tuples if not specialize_cyclotomic(
        Frac.from_poly(vanishing), F, point(t))]
    assert {(t[1], t[2]) for t in zeros} == {(1, 2)}
    with pytest.raises(SpecializationError) as on_diag:
        _eval_frac_diag(rep, fr, scale)
    with pytest.raises(SpecializationError) as at_point:
        specialize_cyclotomic(fr, F, point(zeros[0]))
    assert str(on_diag.value) == str(at_point.value)
    assert on_diag.value.factor == at_point.value.factor


def _dense_mul(a, b):
    n = len(a)
    zero = a[0][0].field.zero
    out = [[zero] * n for _ in range(n)]
    for r in range(n):
        for k in range(n):
            if not a[r][k].is_zero():
                for c in range(n):
                    if not b[k][c].is_zero():
                        out[r][c] = out[r][c] + a[r][k] * b[k][c]
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_cmatrix_mul_matches_dense_product(p):
    F = CycloField(p)
    space = RepSpace(F, 2)
    rng = random.Random(70 + p)

    def entry():
        if rng.random() < 0.3:
            return F.zero
        return F.from_coeffs([Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3, 7)))
                              for _ in range(F.deg)])

    def random_matrix():
        shifts = {tuple(rng.randrange(p) for _ in range(2)) for _ in range(rng.randrange(1, 4))}
        parts = {s: [entry() for _ in range(space.dim)] for s in shifts}
        return CMatrix(space, {s: d for s, d in parts.items() if any(d)})

    for _ in range(20):
        a, b = random_matrix(), random_matrix()
        prod = a * b
        assert _to_dense(prod) == _dense_mul(_to_dense(a), _to_dense(b))
        assert all(any(d) for d in prod.parts.values())
        da, db = _to_dense(a), _to_dense(b)
        for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
            assert _to_dense(got) == [[op(x, y) for x, y in zip(ra, rb)]
                                      for ra, rb in zip(da, db)]
            assert all(any(d) for d in got.parts.values())
        assert (a - a).is_zero()
    # (1 + P)(P - 1) v = (P^2 - 1) v: the shift-P part cancels and is dropped
    k = (1, 0)
    v = [entry() or F.one for _ in range(space.dim)]
    one_plus_p = CMatrix(space, {space.zero_shift: [F.one] * space.dim, k: [F.one] * space.dim})
    p_minus_one = CMatrix(space, {k: v, space.zero_shift: [-c for c in v]})
    prod = one_plus_p * p_minus_one
    assert set(prod.parts) == {space.zero_shift, (2, 0)}
    assert _to_dense(prod) == _dense_mul(_to_dense(one_plus_p), _to_dense(p_minus_one))


# ---------------------------------------------------------------------------
# per-representation caches
# ---------------------------------------------------------------------------

def test_rep_run_evaluates_each_base_curve_once(monkeypatch, capsys):
    calls, built = [], []
    real_eval, real_build = repbuild.eval_element, repbuild.build_rep

    def counting_eval(x, r, *args, **kwargs):
        calls.append((x, r))
        return real_eval(x, r, *args, **kwargs)

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(repbuild, "eval_element", counting_eval)
    monkeypatch.setattr(repbuild, "build_rep", recording_build)
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", "--x", "a0=2,a1=5,c1=3",
               "--checks", "shadows,irreducible,unicity"])
    capsys.readouterr()
    assert rc == 0 and len(built) == 1
    base = built[0]
    table = base.table
    on_base = [x for x, r in calls if r is base]
    for curve in table.catalogue.values():
        image = table.image(curve)
        assert sum(x is image for x in on_base) == 1, curve
    # twisted images are evaluated once each as well
    assert len({id(x) for x in on_base}) == len(on_base)


def test_caches_are_per_rep_and_not_compared(g2c, field3):
    r = build_rep(g2c, 3, {"a0": 2, "a1": 5, "c1": 3})
    curve = g2c.curve_by_name("beta[1]")
    s = shadow_scalar(curve, r)
    assert r._matrices and r._shadows
    assert shadow_scalar(curve, r) is s
    fresh = Rep(r.table, r.space, r.x, r.y, r.boundary)
    assert fresh == r and not fresh._matrices and not fresh._shadows
    same = gauge_shift(r)
    assert same == r and not same._matrices and not same._shadows
    assert shadow_scalar(curve, same) == s
    shifted = gauge_shift(r, {"a0": 1}, {"c1": 2})
    assert shifted != r and not shifted._matrices and not shifted._shadows
    assert replace(r, y={**r.y, "a0": field3.from_rational(2)}) != r
