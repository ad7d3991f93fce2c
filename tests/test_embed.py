"""Curve images, the twist calculus, and their structural properties."""

import re
from fractions import Fraction

import pytest

from skeintorus import (
    QTElem, LPoly, Frac, u_poly, a0_membership, SausageGraph, SigmaTable,
    twist_image, scaled_twist, automorphism_tau_c,
    expand_support_check, fracdehn_check,
)
from skeintorus import embed
from skeintorus.sausage import CurveId
from skeintorus.cli import main


def frac_mono(ctx, exps, c=1):
    return Frac.from_poly(LPoly.monomial(ctx, exps, c))


def test_pants_image(g2c, t2c):
    ctx = g2c.ctx
    img = t2c.image(g2c.curve_by_name("alpha[a0]"))
    expect = QTElem.scalar(g2c, Frac.from_poly(
        LPoly.monomial(ctx, {"A": 2, "Q[a0]": 2}, -1)
        + LPoly.monomial(ctx, {"A": -2, "Q[a0]": -2}, -1)))
    assert img == expect


def test_one_cycle_image_structure(g1b, t1b):
    ctx = g1b.ctx
    img = t1b.image(g1b.curve_by_name("beta[1]"))
    assert sorted(img.terms) == [(-1,), (1,)]
    assert img.coefficient({"a0": 1}) == Frac.from_int(ctx, 1)
    F = Frac.make(u_poly(ctx, {"Q[a0]": 2, "C[1]": 1}, 2) * u_poly(ctx, {"Q[a0]": 2, "C[1]": -1}),
                  [u_poly(ctx, {"Q[a0]": 2}, 2), u_poly(ctx, {"Q[a0]": 2})])
    assert img.coefficient({"a0": -1}) == F


def test_two_cycle_image_structure(g2b, t2b):
    img = t2b.image(g2b.curve_by_name("beta[2]"))
    ctx = g2b.ctx
    support = sorted(img.terms)
    idx_a1 = g2b.internal_edges.index("a1")
    idx_b1 = g2b.internal_edges.index("b1")
    corners = {tuple(k[i] for i in (idx_a1, idx_b1)) for k in support}
    assert corners == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert img.coefficient({"a1": 1, "b1": 1}) == Frac.from_int(ctx, 1)
    for exps in ({"a1": 1, "b1": -1}, {"a1": -1, "b1": 1}, {"a1": -1, "b1": -1}):
        assert not img.coefficient(exps).is_zero()


def test_separating_image_structure(g2c, t2c):
    ctx = g2c.ctx
    img = t2c.image(g2c.curve_by_name("gamma[1]"))
    assert sorted(img.terms) == [(0, 0, -2), (0, 0, 0), (0, 0, 2)]
    # G2 = -U(Qa0^2 Qc^-1) U(Qa1^2 Qc^-1) at genus 2 (d1=d4=a0, d2=d3=a1)
    g2 = -Frac.from_poly(u_poly(ctx, {"Q[a0]": 2, "Q[c1]": -1})
                         * u_poly(ctx, {"Q[a1]": 2, "Q[c1]": -1}))
    assert img.coefficient({"c1": 2}) == g2


def test_twist_closed_form_one_cycle(g1b, t1b):
    # t_e(beta) = -A^3 E Q^2 - A^-1 E^-1 Q^-2 F
    g = g1b
    ctx = g.ctx
    beta = t1b.image(g.curve_by_name("beta[1]"))
    F = beta.coefficient({"a0": -1})
    tw = twist_image(beta, "a0", 1, t1b)
    expect = QTElem.e_monomial(g, {"a0": 1}, frac_mono(ctx, {"A": 3, "Q[a0]": 2}, -1)) \
        + QTElem.e_monomial(g, {"a0": -1}, F * frac_mono(ctx, {"A": -1, "Q[a0]": -2}, -1))
    assert tw == expect


def test_twist_of_disjoint_curve(g2c, t2c):
    alpha = t2c.image(g2c.curve_by_name("alpha[a1]"))
    assert twist_image(alpha, "a0", 1, t2c) == alpha


def test_twists_along_disjoint_edges_commute(g2b, t2b):
    img = t2b.image(g2b.curve_by_name("beta[2]"))
    ab = twist_image(twist_image(img, "a1", 1, t2b), "b1", 1, t2b)
    ba = twist_image(twist_image(img, "b1", 1, t2b), "a1", 1, t2b)
    assert ab == ba


def test_twisted_separating_expansion(g2c, t2c):
    # t_c(gamma) = E^2 G2 A^8 Qc^4 + G0 + E^-2 G-2 Qc^-4
    g = g2c
    ctx = g.ctx
    gamma = t2c.image(g.curve_by_name("gamma[1]"))
    tw = twist_image(gamma, "c1", 1, t2c)
    g2 = gamma.coefficient({"c1": 2})
    g0 = gamma.coefficient({})
    gm2 = gamma.coefficient({"c1": -2})
    expect = QTElem.e_monomial(g, {"c1": 2}, g2 * frac_mono(ctx, {"A": 8, "Q[c1]": 4})) \
        + QTElem.scalar(g, g0) \
        + QTElem.e_monomial(g, {"c1": -2}, gm2 * frac_mono(ctx, {"Q[c1]": -4}))
    assert tw == expect


def test_tau_support_and_defining_relations(g2c, t2c):
    g = g2c
    ctx = g.ctx
    tau = t2c.image(g.curve_by_name("tau[c1]"))
    taubar = t2c.image(g.curve_by_name("taubar[c1]"))
    assert sorted(tau.terms) == [(0, 0, -2), (0, 0, 0), (0, 0, 2)]
    assert not tau.coefficient({"c1": 2}).is_zero()
    assert not tau.coefficient({"c1": -2}).is_zero()
    assert taubar == automorphism_tau_c(tau, "c1", -1)
    # second relation: c tau = A^4 tau c - A^2(A^4-A^-4) gamma - A^2(A^2-A^-2) delta2
    # (gamma and tau are each other's middle resolution against c)
    c_img = t2c.image(g.curve_by_name("alpha[c1]"))
    gamma = t2c.image(g.curve_by_name("gamma[1]"))
    sep = g.curve_by_name("gamma[1]")
    delta2 = t2c.aux[sep]["delta2"]
    a4 = Frac.from_poly(LPoly.a_power(ctx, 4) - LPoly.a_power(ctx, -4))
    a2 = Frac.from_poly(LPoly.a_power(ctx, 2) - LPoly.a_power(ctx, -2))
    lhs = c_img * tau
    rhs = (tau * c_img).mul_a_power(4) \
        - gamma.right_mul(a4).mul_a_power(2) \
        - QTElem.scalar(g, delta2 * a2).mul_a_power(2)
    assert lhs == rhs


@pytest.mark.parametrize("edge", ["a0", "a1", "zz"])
def test_tau_at_non_separating_edge_raises(edge, g2c, t2c):
    with pytest.raises(KeyError, match=rf"CurveId\(kind='tau', edges=\('{edge}',\).* not catalogued"):
        t2c.image(CurveId("tau", (edge,)))


def test_table_build_compares_curves_at_most_once_per_catalogued_curve(monkeypatch):
    # a missing base is found in a set of the catalogued curves: a scan of the
    # catalogue made 8,987 comparisons here, quadratic in its 134 curves
    g = SausageGraph(20, True)
    calls = []
    eq = CurveId.__eq__
    monkeypatch.setattr(CurveId, "__eq__", lambda self, other: calls.append(1) or eq(self, other))
    t = SigmaTable(g)
    assert len(calls) <= len(t.catalogue)


@pytest.mark.parametrize("graph, table", [("g2c", "t2c"), ("g2b", "t2b")])
def test_tau_satisfies_second_exchange_relation(graph, table, request):
    # README Conventions:
    # c tau = A^4 tau c - A^2(A^4 - A^-4) gamma - A^2(A^2 - A^-2)(d1 d2 + d3 d4),
    # with c, d1..d4 the pants curves of the separating edge and its neighbours
    g, t = request.getfixturevalue(graph), request.getfixturevalue(table)
    ctx = g.ctx
    sep = g.curve_by_name("gamma[1]")
    c, *ds = sep.edges
    gamma = t.image(sep)
    tau = t.image(g.curve_by_name(f"tau[{c}]"))
    c_img = QTElem.scalar(g, t.pants_scalar(c))
    d1, d2, d3, d4 = (t.pants_scalar(e) for e in ds)
    a2_a4 = Frac.from_poly(LPoly.a_power(ctx, 6) - LPoly.a_power(ctx, -2))
    a2_a2 = Frac.from_poly(LPoly.a_power(ctx, 4) - LPoly.const(ctx, 1))

    def residual(x):
        return (c_img * x - (x * c_img).mul_a_power(4) + gamma.right_mul(a2_a4)
                + QTElem.scalar(g, a2_a2 * (d1 * d2 + d3 * d4)))

    assert residual(tau).is_zero()
    # the relation tells tau from its neighbours
    assert not residual(tau + gamma).is_zero()
    assert not residual(tau.mul_a_power(2)).is_zero()


def test_fracdehn_scaling_examples(g1b, t1b):
    # positive twist scales F_1 by -A^3 Q^2 and F_-1 by -A^-1 Q^-2
    g = g1b
    ctx = g.ctx
    beta = t1b.image(g.curve_by_name("beta[1]"))
    tw = twist_image(beta, "a0", 1, t1b)
    assert tw.coefficient({"a0": 1}) == (
        beta.coefficient({"a0": 1}) * frac_mono(ctx, {"A": 3, "Q[a0]": 2}, -1))
    assert tw.coefficient({"a0": -1}) == (
        beta.coefficient({"a0": -1}) * frac_mono(ctx, {"A": -1, "Q[a0]": -2}, -1))
    # negative twist: F_-1 scales by -A^(2-1) Q^2 = -A Q^2
    twm = twist_image(beta, "a0", -1, t1b)
    assert twm.coefficient({"a0": -1}) == (
        beta.coefficient({"a0": -1}) * frac_mono(ctx, {"A": 1, "Q[a0]": 2}, -1))


def test_fracdehn_two_cycle(g2b, t2b):
    # twist along the first traversed edge scales the (1,1) corner by -A^3 Qb^2
    g = g2b
    ctx = g.ctx
    img = t2b.image(g.curve_by_name("beta[2]"))
    tw = twist_image(img, "a1", 1, t2b)
    assert tw.coefficient({"a1": 1, "b1": 1}) == (
        img.coefficient({"a1": 1, "b1": 1}) * frac_mono(ctx, {"A": 3, "Q[a1]": 2}, -1))
    report = fracdehn_check(g.curve_by_name("beta[2]"), t2b)
    assert report.all_pass


def test_fracdehn_check_all_cycles(g1b, t1b, g2c, t2c, g2b, t2b):
    for g, t in ((g1b, t1b), (g2c, t2c), (g2b, t2b)):
        for name, curve in t.catalogue.items():
            if curve.kind in ("one_cycle", "two_cycle"):
                assert fracdehn_check(curve, t).all_pass, name


def test_expand_support_check(g1b, t1b, g2c, t2c, g2b, t2b):
    for g, t in ((g1b, t1b), (g2c, t2c), (g2b, t2b)):
        report = expand_support_check(t)
        assert report.all_pass, [r.id for r in report.identities if not r.passed]


def test_every_image_and_twist_in_even_subalgebra(g2c, t2c):
    for name, curve in t2c.catalogue.items():
        img = t2c.image(curve)
        assert a0_membership(img), name
        ivec = g2c.intersection_vector(curve)
        for e in g2c.internal_edges:
            if ivec[e] in (1, 2):
                assert a0_membership(twist_image(img, e, 1, t2c)), (name, e)
                assert a0_membership(twist_image(img, e, -1, t2c)), (name, e)


def test_scaled_twist_requires_unit_exponent(g2c, t2c):
    gamma = t2c.image(g2c.curve_by_name("gamma[1]"))
    with pytest.raises(ValueError):
        scaled_twist(gamma, "c1", 1)


def _rational_eval(fr, point):
    def ev_poly(p):
        total = Fraction(0)
        for e, c in p.exp_items():
            v = Fraction(c)
            for name, k in zip(p.ctx.names, e):
                if k:
                    v *= point[name] ** k
            total += v
        return total
    den = Fraction(fr.den_const)
    for f, m in fr.factors.values():
        den *= ev_poly(f) ** m
    return ev_poly(fr.num) / den


def test_images_linearly_independent(g2c, t2c):
    # no nontrivial relation sum(lambda_i sigma(curve_i)) = 0 with scalar
    # coefficients: evaluate all variables at generic rational points and
    # check the curve-by-support matrix has full row rank over Q
    curves = sorted(t2c.catalogue)
    supports = sorted({k for n in curves for k in t2c.image(t2c.catalogue[n]).terms})
    rows = []
    for n in curves:
        img = t2c.image(t2c.catalogue[n])
        row = []
        for point in ({"A": Fraction(2), "Q[a0]": Fraction(3), "Q[a1]": Fraction(5),
                       "Q[c1]": Fraction(7)},
                      {"A": Fraction(3, 2), "Q[a0]": Fraction(7, 3), "Q[a1]": Fraction(11, 2),
                       "Q[c1]": Fraction(13, 5)},
                      {"A": Fraction(5, 3), "Q[a0]": Fraction(2, 7), "Q[a1]": Fraction(9, 4),
                       "Q[c1]": Fraction(3, 11)},
                      {"A": Fraction(7, 4), "Q[a0]": Fraction(5, 2), "Q[a1]": Fraction(4, 3),
                       "Q[c1]": Fraction(8, 5)}):
            for k in supports:
                f = img.terms.get(k)
                row.append(_rational_eval(f, point) if f is not None else Fraction(0))
        rows.append(row)
    # exact Gaussian elimination over Q
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pr[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
        if rank == len(rows):
            break
    assert rank == len(curves)


@pytest.fixture
def twist_calls(monkeypatch):
    """The (edge, sign) of every twist_image call SigmaTable.image makes."""
    calls, real = [], embed.twist_image

    def counting(img, edge, sign, t):
        calls.append((edge, sign))
        return real(img, edge, sign, t)

    monkeypatch.setattr(embed, "twist_image", counting)
    return calls


def test_chained_twist_starts_from_cached_suffix(g2b, twist_calls):
    t = SigmaTable(g2b)
    curve = next(c for c in t.catalogue.values() if c.kind == "two_cycle")
    b, c = curve.edges[:2]
    t.image(curve.twisted(c, 1))
    assert twist_calls == [(c, 1)]
    chained = t.image(curve.twisted(c, 1).twisted(b, 1))
    assert twist_calls == [(c, 1), (b, 1)]
    assert chained == twist_image(twist_image(t.image(curve), c, 1, t), b, 1, t)
    assert t.image(curve.twisted(c, 1).twisted(b, 1)) is chained and len(twist_calls) == 2
    # a word with no cached suffix twists from the base, rightmost first
    t.image(curve.twisted(b, -1).twisted(c, -1))
    assert twist_calls[2:] == [(b, -1), (c, -1)]
    with pytest.raises(KeyError, match="not catalogued"):
        t.image(CurveId("pants", ("zz",)).twisted(b, 1))


def test_rep_makes_each_twist_once(twist_calls, capsys):
    # one-boundary genus 2: six twisted curves, t_b t_c of the two-cycle
    # curve made from the kept t_c by one twist at b
    assert main(["rep", "--p", "3", "--genus", "2", "--x", "a0=2,a1=5,b1=7,c1=3",
                 "--checks", "shadows"]) == 0
    capsys.readouterr()
    assert len(twist_calls) == 6, twist_calls


@pytest.fixture(scope="module")
def tables():
    """Closed and one-boundary genus 2 and 3, one table each."""
    return {(genus, closed): SigmaTable(SausageGraph(genus, closed))
            for genus in (2, 3) for closed in (True, False)}


GRAPHS = [(2, True), (2, False), (3, True), (3, False)]


@pytest.mark.parametrize("genus, closed", GRAPHS)
def test_image_of_uncatalogued_curve_raises(genus, closed, tables):
    t = tables[genus, closed]
    g = t.graph
    strays = [CurveId("pants", ("zz",)), CurveId("tau", ("a0",)),
              CurveId("separating", ("c1",)), CurveId("one_cycle", ("a0", "a1"))]
    # a univalent edge has a pants scalar, but no alpha curve in the catalogue
    strays += [CurveId("pants", (e,)) for e in g.univalent_edges]
    for curve in strays + [c.twisted("a0", 1) for c in strays]:
        with pytest.raises(KeyError, match=re.escape(f"curve {curve} not catalogued on {g!r}")):
            t.image(curve)
        with pytest.raises(KeyError, match="not catalogued"):
            t.with_mutation(curve)


@pytest.mark.parametrize("genus, closed", GRAPHS)
def test_taubar_image_is_the_inverse_automorphism_of_tau(genus, closed, tables):
    t = tables[genus, closed]
    for c, *_ds in t.graph.seps:
        tau = t.image(t.catalogue[f"tau[{c}]"])
        assert t.image(t.catalogue[f"taubar[{c}]"]) == automorphism_tau_c(tau, c, -1)


@pytest.mark.parametrize("genus, closed", GRAPHS)
def test_mutated_table_rebuilds_twists_and_keeps_tau(genus, closed, tables):
    t = tables[genus, closed]
    taus = [c for c in t.catalogue.values() if c.kind in ("tau", "tau_bar")]
    probed = set()
    for kind in {kind for _builder, _requirement, kind in embed._SUITES.values()}:
        target = next((c for c in t.catalogue.values() if c.kind == kind), None)
        if target is None:  # closed genus 2 has no two-cycle
            continue
        probed.add(kind)
        edge = target.edges[0]
        before = t.image(target.twisted(edge, 1))  # kept in the unmutated table
        m = t.with_mutation(target)
        base = m.image(target)
        assert base != t.image(target)
        twisted = m.image(target.twisted(edge, 1))
        assert twisted == twist_image(base, edge, 1, m) and twisted != before
        for c in taus:
            assert m.image(c) == t.image(c), (kind, c)
    assert probed >= {"pants", "one_cycle", "separating"}
