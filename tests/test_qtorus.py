"""Quantum torus multiplication, commutators, automorphisms, membership."""

import random

import pytest

from skeintorus import (
    QTElem, LPoly, Frac, u_poly, commutator_A, automorphism_tau_c, a0_membership,
    RoleError, twist_image, parse_expression,
)


def q_scalar(g, exps, c=1):
    return QTElem.scalar(g, Frac.from_poly(LPoly.monomial(g.ctx, exps, c)))


def test_qe_commutation_every_edge(g2c, g2b):
    for g in (g2c, g2b):
        for e in g.internal_edges:
            Q = q_scalar(g, {g.var_of_edge(e): 1})
            E = QTElem.e_monomial(g, {e: 1})
            assert Q * E == (E * Q).mul_a_power(1)
            for f in g.internal_edges:
                if f != e:
                    Ef = QTElem.e_monomial(g, {f: 1})
                    assert Q * Ef == Ef * Q


def test_product_rule_example(g2c):
    # (E^2 Q)(E^3 Q^2) = E^5 shift(Q, 3) Q^2 = E^5 A^3 Q^3
    g = g2c
    x = QTElem.e_monomial(g, {"a0": 2}, Frac.from_poly(LPoly.monomial(g.ctx, {"Q[a0]": 1})))
    y = QTElem.e_monomial(g, {"a0": 3}, Frac.from_poly(LPoly.monomial(g.ctx, {"Q[a0]": 2})))
    expect = QTElem.e_monomial(
        g, {"a0": 5}, Frac.from_poly(LPoly.monomial(g.ctx, {"A": 3, "Q[a0]": 3})))
    assert x * y == expect


def test_add_doubles_pants_image(g2c, t2c):
    # sigma(alpha) + sigma(alpha) = -2(A^2 Q^2 + A^-2 Q^-2)
    g = g2c
    a = t2c.image(g.curve_by_name("alpha[a0]"))
    expect = QTElem.scalar(g, Frac.from_poly(
        LPoly.monomial(g.ctx, {"A": 2, "Q[a0]": 2}, -2)
        + LPoly.monomial(g.ctx, {"A": -2, "Q[a0]": -2}, -2)))
    assert a + a == expect


def test_unit_and_additive_inverse(g2c):
    g = g2c
    x = QTElem.e_monomial(g, {"c1": 2}, Frac.make(
        LPoly.const(g.ctx, 1), [u_poly(g.ctx, {"Q[a0]": 2})]))
    assert x * QTElem.one(g) == x
    assert QTElem.one(g) * x == x
    assert (x + (-x)).is_zero()
    assert (x + QTElem.zero(g)) == x


def _random_elem(g, rng, max_terms=2):
    out = QTElem.zero(g)
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = {e: rng.randrange(-2, 3) for e in rng.sample(g.internal_edges, 2)}
        coeff = LPoly.monomial(
            g.ctx, {"A": rng.randrange(-2, 3),
                    g.var_of_edge(rng.choice(g.internal_edges)): rng.randrange(-2, 3)},
            rng.randrange(-3, 4) or 1)
        dens = [u_poly(g.ctx, {g.var_of_edge(g.internal_edges[0]): 2}, 2)] \
            if rng.random() < 0.3 else []
        out = out + QTElem.e_monomial(g, exps, Frac.make(coeff, dens))
    return out


def test_associativity_randomized(g2c):
    rng = random.Random(23)
    for _ in range(200):
        x, y, z = (_random_elem(g2c, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_commutator_of_element_with_itself(g2c):
    g = g2c
    rng = random.Random(4)
    x = _random_elem(g, rng)
    # [x, x]_A = (A - A^-1) x^2
    lhs = commutator_A(x, x)
    rhs = (x * x).mul_a_power(1) - (x * x).mul_a_power(-1)
    assert lhs == rhs


def test_commutator_twist_relation(g2c, t2c):
    # [sigma(e), sigma(beta)]_A = (A^2 - A^-2) sigma(t_e(beta))
    g = g2c
    beta = t2c.image(g.curve_by_name("beta[1]"))
    e_img = t2c.image(g.curve_by_name("alpha[a0]"))
    lhs = commutator_A(e_img, beta)
    tw = twist_image(beta, "a0", 1, t2c)
    rhs = tw.mul_a_power(2) - tw.mul_a_power(-2)
    assert lhs == rhs


def test_disjoint_pants_commute(g2c, t2c):
    g = g2c
    a = t2c.image(g.curve_by_name("alpha[a0]"))
    b = t2c.image(g.curve_by_name("alpha[a1]"))
    lhs = commutator_A(a, b)
    rhs = (a * b).mul_a_power(1) - (a * b).mul_a_power(-1)
    assert lhs == rhs


def test_tau_automorphism_on_powers(g2c):
    g = g2c
    # E_c^2 -> (-A)^8 E_c^2 Q_c^4 = A^8 E_c^2 Q_c^4
    res = automorphism_tau_c(QTElem.e_monomial(g, {"c1": 2}), "c1")
    expect = QTElem.e_monomial(g, {"c1": 2},
                               Frac.from_poly(LPoly.monomial(g.ctx, {"A": 8, "Q[c1]": 4})))
    assert res == expect
    # Q_c is fixed
    qc = q_scalar(g, {"Q[c1]": 1})
    assert automorphism_tau_c(qc, "c1") == qc
    with pytest.raises(RoleError):
        automorphism_tau_c(qc, "a0")


def test_tau_automorphism_multiplicative_and_bijective(g2c):
    g = g2c
    rng = random.Random(31)
    for _ in range(40):
        x, y = _random_elem(g, rng), _random_elem(g, rng)
        assert automorphism_tau_c(x * y, "c1") \
            == automorphism_tau_c(x, "c1") * automorphism_tau_c(y, "c1")
        assert automorphism_tau_c(automorphism_tau_c(x, "c1"), "c1", -1) == x


def test_tau_matches_twisted_separating_curve(g2c, t2c):
    gamma = t2c.image(g2c.curve_by_name("gamma[1]"))
    assert twist_image(gamma, "c1", 1, t2c) == automorphism_tau_c(gamma, "c1")


def test_membership_examples(g2c, t2c):
    g = g2c
    for name in ("alpha[a0]", "alpha[c1]", "beta[1]", "gamma[1]"):
        assert a0_membership(t2c.image(g.curve_by_name(name)))
    assert not a0_membership(QTElem.e_monomial(g, {"c1": 1}))
    assert not a0_membership(q_scalar(g, {"Q[a0]": 1}))
    assert a0_membership(q_scalar(g, {"Q[a0]": 2}))
    assert a0_membership(QTElem.e_monomial(g, {"a0": 1}))
    # denominators: products of U(A^n Q_e^2) for any n, and nothing else
    assert a0_membership(parse_expression(
        "1/((Q[a0]^2 - Q[a0]^-2)*(A^20*Q[a1]^2 - A^-20*Q[a1]^-2))", g))
    for den in ("Q[a0]^2 + Q[a0]^-2", "A^2 - A^-2", "Q[a0]^4 - Q[a0]^-4",
                "Q[a0]*Q[a1] - Q[a0]^-1*Q[a1]^-1", "A*Q[a0] - 1"):
        assert not a0_membership(parse_expression(f"1/({den})", g))
    # and their divisors with an even cofactor, decided on the value:
    # 1/(A^2n Q_e^2 - 1) = (1 + A^-2n Q_e^-2) / U(A^2n Q_e^2)
    for e in g.internal_edges:
        for n in (0, 1, 3, -5):
            divisor = parse_expression(f"1/(A^{2 * n}*Q[{e}]^2 - 1)", g)
            over_u = parse_expression(
                f"(1 + A^{-2 * n}*Q[{e}]^-2) / (A^{2 * n}*Q[{e}]^2 - A^{-2 * n}*Q[{e}]^-2)", g)
            assert divisor == over_u
            assert a0_membership(divisor) and a0_membership(over_u)
    # A^8 - 1 is left in the product's form, and cancels when read
    assert a0_membership(parse_expression(
        "sigma(beta[1]) * ((A^4-1)/(A^8-1)) * (A^4+1)", g, t2c))


def test_membership_closed_under_ops(g2c, t2c):
    g = g2c
    rng = random.Random(12)
    pool = [t2c.image(g.curve_by_name(n)) for n in ("alpha[a0]", "beta[1]", "gamma[1]")]
    pool += [QTElem.e_monomial(g, {"a0": 1}), q_scalar(g, {"Q[a0]": 2}),
             QTElem.e_monomial(g, {"c1": 2}), q_scalar(g, {"Q[c1]": 1})]
    for _ in range(25):
        x, y = rng.choice(pool), rng.choice(pool)
        assert a0_membership(x * y)
        assert a0_membership(x + y)
    # their denominators hold U(A^10 Q[a0]^2) and U(A^12 Q[c1]^2)
    assert a0_membership(pool[1] ** 5)
    assert a0_membership(pool[2] ** 3)


def _u_product_factor(g, rng, with_other):
    """A random product of U(A^n Q_e^2) and of U(A^n Q_e), times a unit, and
    times one factor that divides no product of U's when ``with_other``."""
    ctx = g.ctx
    q = [g.var_of_edge(e) for e in g.internal_edges]
    poly = LPoly.monomial(ctx, {"A": rng.randrange(-5, 6), rng.choice(q): rng.randrange(-3, 4)},
                          rng.choice((1, -1)))
    for _ in range(rng.randrange(0 if with_other else 1, 4)):
        # a U in Q_e is A^2n Q_e^2 - 1 up to a unit, and
        # 1/(A^2n Q_e^2 - 1) = (1 + A^-2n Q_e^-2) / U(A^2n Q_e^2)
        poly = poly * u_poly(ctx, {rng.choice(q): rng.choice((1, 2, 2))}, rng.randrange(-30, 31))
    if with_other:
        e, f = rng.sample(q, 2)
        n = rng.randrange(-30, 31)
        others = [
            LPoly.monomial(ctx, {"A": n, e: 2}) + LPoly.monomial(ctx, {"A": -n, e: -2}),
            u_poly(ctx, {e: 4}, n),                       # a U in Q^4, not in Q^2
            u_poly(ctx, {}, n or 1),                      # no Q at all
            u_poly(ctx, {e: 1, f: 1}, n),                 # two edges
            # three terms
            u_poly(ctx, {e: 2}, n) * LPoly.a_power(ctx, 1) + LPoly.monomial(ctx, {e: 2}),
            LPoly.monomial(ctx, {"A": 2 * n + 1, e: 4}) - LPoly.const(ctx, 1),  # odd A-step
        ]
        if g.univalent_edges:
            others.append(u_poly(ctx, {"C[1]": 2}, n))   # the boundary is not internal
        poly = poly * rng.choice(others)
    return poly


def test_membership_of_random_localizing_factors(g2c, g2b, g3c):
    # the uncapped test agrees with the construction on seeded random factors
    rng = random.Random(31)
    for g in (g2c, g2b, g3c):
        for i in range(100):
            with_other = i % 2 == 1
            poly = _u_product_factor(g, rng, with_other)
            # this numerator cancels the monomial the denominator gives up, so
            # only the denominator decides
            num = LPoly.from_exps(g.ctx, {poly.min_exponents(): 1})
            assert a0_membership(QTElem.scalar(g, Frac.make(num, [poly]))) != with_other, poly


def test_json_and_text_forms(g2c, t2c):
    img = t2c.image(g2c.curve_by_name("beta[1]"))
    js = img.to_json()
    assert isinstance(js, list) and all({"exponents", "num", "den"} <= set(d) for d in js)
    assert "E[a0:1]" in str(img)
