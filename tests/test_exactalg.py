"""Laurent polynomials, fractions, substitutions and cyclotomic scalars."""

import contextlib
import io
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from skeintorus import (
    LPoly, Frac, CycloField, QTElem, specialize_cyclotomic,
    u_poly, quantum_int, cyclotomic_polynomial, ContextMismatch, InversionError,
    SpecializationError, exactalg,
)
from skeintorus.cli import main
from skeintorus.exactalg import EXP_MAX, EXP_MIN, ExponentOverflow, _den_lcm, _div_long, power


@pytest.fixture(scope="module")
def ctx(g2c):
    return g2c.ctx


def mono(ctx, exps, c=1):
    return LPoly.monomial(ctx, exps, c)


def test_difference_of_squares(ctx):
    p = (LPoly.a_power(ctx, 1) + LPoly.a_power(ctx, -1)) \
        * (LPoly.a_power(ctx, 1) - LPoly.a_power(ctx, -1))
    assert p == LPoly.a_power(ctx, 2) - LPoly.a_power(ctx, -2)


def test_u_square(ctx):
    # U(x)^2 = x^2 - 2 + x^-2 for x = A^2 Q1^2
    x = u_poly(ctx, {"Q[a0]": 2}, 2)
    expected = mono(ctx, {"A": 4, "Q[a0]": 4}) + LPoly.const(ctx, -2) \
        + mono(ctx, {"A": -4, "Q[a0]": -4})
    assert x * x == expected


def test_quantum_integer_identity(ctx):
    # expand by hand: {1}(A^2+A^-2) = (A^2-A^-2)(A^2+A^-2) = A^4-A^-4 = {2},
    # so {2} + {1}(A^2+A^-2) = 2(A^4 - A^-4)
    lhs = quantum_int(ctx, 2) + quantum_int(ctx, 1) * (LPoly.a_power(ctx, 2) + LPoly.a_power(ctx, -2))
    assert lhs == quantum_int(ctx, 2).mul_int(2)


def test_context_mismatch(ctx, g2b):
    with pytest.raises(ContextMismatch):
        LPoly.const(ctx, 1) + LPoly.const(g2b.ctx, 1)


def test_frac_inv_of_u(ctx):
    f = Frac.from_poly(u_poly(ctx, {"Q[a0]": 2})).inv()
    # 1/(Q^2 - Q^-2); cross multiply to check
    assert f * Frac.from_poly(u_poly(ctx, {"Q[a0]": 2})) == Frac.from_int(ctx, 1)


def test_frac_x_times_inverse(ctx):
    x = Frac.from_poly(u_poly(ctx, {"Q[a0]": 2}, 2))
    assert x * x.inv() == Frac.from_int(ctx, 1)
    with pytest.raises(InversionError):
        Frac.from_int(ctx, 0).inv()


def test_frac_factor_quotient(ctx):
    # U((AQ)^2)/U(AQ) = AQ + A^-1 Q^-1, from x^2-x^-2 = (x-x^-1)(x+x^-1)
    f = Frac.make(u_poly(ctx, {"Q[a0]": 2}, 2), [u_poly(ctx, {"Q[a0]": 1}, 1)])
    target = Frac.from_poly(mono(ctx, {"A": 1, "Q[a0]": 1}) + mono(ctx, {"A": -1, "Q[a0]": -1}))
    assert f == target


def test_frac_equal_zero_forms(ctx):
    z1 = Frac.from_int(ctx, 0)
    z2 = Frac.make(LPoly.zero(ctx), [u_poly(ctx, {"Q[a0]": 2})])
    assert z1 == z2
    assert Frac.from_poly(mono(ctx, {"Q[a0]": 1})) != Frac.from_poly(mono(ctx, {"Q[a0]": -1}))


def test_den_normal_form(ctx):
    # denominator of the normal form has min exponent 0 in every variable and
    # positive leading coefficient
    f = Frac.make(LPoly.const(ctx, 1), [u_poly(ctx, {"Q[a0]": 2}, -3)])
    den = dict(f.den().exp_items())
    assert all(v >= 0 for e in den for v in e)
    assert min(e[i] for e in den for i in range(len(e))) >= 0
    lead_exp = max(den, key=lambda e: (sum(e), e))
    assert den[lead_exp] > 0


def test_shift_substitute_single(ctx):
    p = Frac.from_poly(mono(ctx, {"Q[a0]": 1}))
    assert p.shift((3, 0, 0)) == Frac.from_poly(mono(ctx, {"A": 3, "Q[a0]": 1}))


def test_shift_substitute_cancel(ctx):
    p = Frac.from_poly(mono(ctx, {"Q[a0]": 1, "Q[a1]": -1}))
    assert p.shift((1, 1, 0)) == p


def test_shift_substitute_constant(ctx):
    p = Frac.from_int(ctx, 7)
    assert p.shift((2, 5, 1)) == p


def test_shift_is_ring_homomorphism(ctx):
    rng = random.Random(11)
    names = list(ctx.names)
    for _ in range(60):
        def rand_poly():
            out = LPoly.zero(ctx)
            for _ in range(rng.randrange(1, 4)):
                exps = {n: rng.randrange(-3, 4) for n in rng.sample(names, 2)}
                out = out + mono(ctx, exps, rng.randrange(-4, 5))
            return out
        p, q = rand_poly(), rand_poly()
        k = tuple(rng.randrange(-2, 3) for _ in ctx.q_slots)
        l = tuple(rng.randrange(-2, 3) for _ in ctx.q_slots)
        assert (p * q).shift(l) == p.shift(l) * q.shift(l)
        kl = tuple(a + b for a, b in zip(k, l))
        assert p.shift(k).shift(l) == p.shift(kl)


def test_ring_axioms_randomized(ctx):
    rng = random.Random(5)
    names = list(ctx.names)

    def rand_poly():
        out = LPoly.zero(ctx)
        for _ in range(rng.randrange(0, 4)):
            exps = {n: rng.randrange(-3, 4) for n in rng.sample(names, 2)}
            out = out + mono(ctx, exps, rng.randrange(-5, 6))
        return out

    for _ in range(500):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_frac_equivalence_compatible_with_arith(ctx):
    rng = random.Random(17)
    u1 = u_poly(ctx, {"Q[a0]": 2})
    u2 = u_poly(ctx, {"Q[a1]": 2}, 2)

    def rand_frac():
        num = LPoly.zero(ctx)
        for _ in range(rng.randrange(1, 3)):
            num = num + mono(ctx, {"A": rng.randrange(-2, 3), "Q[a0]": rng.randrange(-2, 3)},
                             rng.randrange(-3, 4) or 1)
        dens = rng.sample([u1, u2], rng.randrange(0, 3))
        return Frac.make(num, dens)

    for _ in range(80):
        a, b, c = rand_frac(), rand_frac(), rand_frac()
        # reflexive / symmetric
        assert a == a
        if a == b:
            assert b == a
        # an unreduced representative of a equals a
        # same value, bigger representation (u1 is not canonical, so it is a new key)
        a_blown = Frac(ctx, a.num * u1, a.den_const, {**a.factors, u1.key(): (u1, 1)})
        assert a == a_blown
        assert a_blown + c == a + c
        assert a_blown * c == a * c


def _rand_u_frac(ctx, rng):
    """A fraction whose denominator is a constant times U(A^n Q^2) factors."""
    qs = ("Q[a0]", "Q[a1]", "Q[c1]")
    num = LPoly.zero(ctx)
    for _ in range(rng.randrange(1, 4)):
        num = num + mono(ctx, {"A": rng.randrange(-3, 4), rng.choice(qs): rng.randrange(-2, 3)},
                         rng.randrange(-4, 5) or 1)
    dens = [u_poly(ctx, {rng.choice(qs): 2}, rng.randrange(-2, 3)).mul_int(rng.choice((1, 1, 2, 3)))
            for _ in range(rng.randrange(0, 4))]
    return Frac.make(num, dens)


def test_den_lcm_matches_cross_multiplication(ctx):
    rng = random.Random(41)
    n_equal = 0
    for _ in range(150):
        a, b = _rand_u_frac(ctx, rng), _rand_u_frac(ctx, rng)
        if rng.random() < 0.3:
            # the same value over a larger denominator
            u = u_poly(ctx, {"Q[a1]": 2}, 1)
            b = Frac(ctx, a.num * u, a.den_const, {**a.factors, u.key(): (u, 1)})
        equal = a.num * b.den() == b.num * a.den()
        n_equal += equal
        assert (a == b) == equal == (a - b).is_zero()
        lc, fac, a_extra, b_extra = _den_lcm(a, b)
        assert a_extra * a.den() == b_extra * b.den() == Frac(ctx, a.num, lc, fac).den()
        assert gcd(lc // a.den_const, lc // b.den_const) == 1
        assert (a + b) - b == a and ((a + b) - b - a).is_zero()
        s = a + b
        assert s.num * a.den() * b.den() == (a.num * b.den() + b.num * a.den()) * s.den()
    assert 30 < n_equal < 120


def _join_reference(fr, pairs):
    """``fr`` over f^m for each pair (f, m): one factor and one copy at a time.

    Each f is split from its exponent tuples as sign * content * x^mins *
    canon, canon with zero minimal exponents and a positive grlex lead.
    """
    ctx = fr.ctx
    num, dc, fac = fr.num, fr.den_const, dict(fr.factors)
    for f, m in pairs:
        items = f.exp_items()
        mins = tuple(min(e[i] for e, _c in items) for i in range(ctx.nvars))
        content = gcd(*(c for _e, c in items))
        sign = 1 if max(items, key=lambda ec: (sum(ec[0]), ec[0]))[1] > 0 else -1
        canon = LPoly.from_exps(ctx, {tuple(x - y for x, y in zip(e, mins)): c // (sign * content)
                                      for e, c in items})
        for _ in range(m):
            num = num * LPoly.from_exps(ctx, {tuple(-v for v in mins): sign})
            dc *= content
            k = canon.key()
            fac[k] = (fac[k][0], fac[k][1] + 1) if k in fac else (canon, 1)
    return Frac(ctx, num, dc, fac)


def _form(fr):
    """Numerator, den_const, and the factors with their multiplicities in order."""
    return fr.num, fr.den_const, [(k, f, m) for k, (f, m) in fr.factors.items()]


def _rand_factor(ctx, rng):
    """A U(A^n Q^2) binomial, a pure-A quantum integer or a polynomial of
    three or more terms, times a content and a signed monomial."""
    qs = ctx.names[1:]
    kind = rng.randrange(3)
    if kind == 0:
        f = u_poly(ctx, {rng.choice(qs): 2}, rng.randrange(-3, 4))
    elif kind == 1:
        f = quantum_int(ctx, rng.randrange(1, 4))
    else:
        f = LPoly.zero(ctx)
        while len(f.terms) < 3:
            f = f + mono(ctx, {"A": rng.randrange(-2, 3), rng.choice(qs): rng.randrange(-2, 3)},
                         rng.choice((-2, -1, 1, 3)))
    unit = mono(ctx, {"A": rng.randrange(-2, 3), rng.choice(qs): rng.randrange(-1, 2)},
                rng.choice((1, -1)))
    return f.mul_int(rng.choice((1, 1, 2, 3))) * unit


def test_join_routes_match_one_at_a_time_reference(ctx):
    """make, inv, shift and sub_a_squared join their denominators in one
    pass; each equals the reference fold in form, not only in value."""
    rng = random.Random(1109)
    seen = {"cancelled": 0, "repeated": 0, "long": 0}
    for _ in range(120):
        dens = [_rand_factor(ctx, rng) for _ in range(rng.randrange(0, 4))]
        if dens and rng.random() < 0.5:
            dens.append(rng.choice(dens).mul_int(-1))
        num = LPoly.zero(ctx)
        for _ in range(rng.randrange(1, 4)):
            num = num + mono(ctx, {"A": rng.randrange(-3, 4), "Q[a1]": rng.randrange(-2, 3)},
                             rng.choice((-4, -1, 1, 2, 6)))
        for f in rng.sample(dens, rng.randrange(0, len(dens) + 1)):
            num = num * f
        a = Frac.make(num, dens)
        assert _form(a) == _form(
            _join_reference(Frac.from_poly(num), [(f, 1) for f in dens]).reduced())
        den = LPoly.const(ctx, 1)
        for f in dens:
            den = den * f
        assert a == Frac(ctx, num, 1, {den.key(): (den, 1)})
        seen["cancelled"] += sum(m for _f, m in a.factors.values()) < len(dens)
        seen["repeated"] += any(m > 1 for _f, m in a.factors.values())
        seen["long"] += any(len(f.terms) > 2 for f, _m in a.factors.values())
        if a.is_zero():
            continue
        assert _form(a.inv()) == _form(
            _join_reference(Frac.from_poly(a.den()), [(a.num, 1)]).reduced())
        # substitutions: nothing new cancels, so the fold needs no simplification
        l = tuple(rng.randint(-3, 3) for _ in ctx.q_slots)
        want = _join_reference(Frac(ctx, a.num.shift(l), a.den_const),
                               [(f.shift(l), m) for f, m in a.factors.values()])
        assert _form(a.shift(l)) == _form(want) == _form(want.reduced())
        want = _join_reference(Frac(ctx, a.num.sub_a_squared(), a.den_const),
                               [(f.sub_a_squared(), m) for f, m in a.factors.values()])
        assert _form(a.sub_a_squared()) == _form(want) == _form(want.reduced())
    assert min(seen.values()) > 10, seen


# -- the product's and the sum's trials against the full trial ----------------

def _full_trial(fr):
    """Every factor tried against the whole numerator, up to its multiplicity,
    after dividing out the gcd of den_const and the numerator's content."""
    ctx = fr.ctx
    num, dc, fac = fr.num, fr.den_const, dict(fr.factors)
    if num.is_zero():
        return Frac(ctx, num)
    g = gcd(num.int_content(), dc)
    if g > 1:
        num = LPoly(ctx, {e: c // g for e, c in num.terms.items()})
        dc //= g
    for k in list(fac):
        f, m = fac[k]
        while m > 0:
            q = num.exact_div(f)
            if q is None:
                break
            num = q
            m -= 1
        if m:
            fac[k] = (f, m)
        else:
            del fac[k]
    return Frac(ctx, num, dc, fac)


def _full_add(a, b):
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    lc, fac, a_extra, b_extra = _den_lcm(a, b)
    return _full_trial(Frac(a.ctx, a.num * a_extra + b.num * b_extra, lc, fac))


def _full_mul(a, b):
    if a.is_zero() or b.is_zero():
        return Frac(a.ctx, LPoly.zero(a.ctx))
    fac = dict(a.factors)
    for k, (f, m) in b.factors.items():
        fac[k] = (f, fac[k][1] + m) if k in fac else (f, m)
    return _full_trial(Frac(a.ctx, a.num * b.num, a.den_const * b.den_const, fac))


def _full_mul_int(a, c):
    if c == 0:
        return Frac(a.ctx, LPoly.zero(a.ctx))
    return _full_trial(Frac(a.ctx, a.num.mul_int(c), a.den_const, a.factors))


def _assert_reduced(fr):
    """No factor of the fraction divides its numerator."""
    for f, _m in fr.factors.values():
        assert fr.num.is_zero() or fr.num.exact_div(f) is None, f


def _degree(factors):
    """The number of factors counted with multiplicity."""
    return sum(m for _f, m in factors.values())


def _reduced_frac(ctx, rng, pool):
    """A reduced fraction over pool factors with multiplicities 1-3 and an
    integer content; its numerator is a multiple of some pool factors, so
    they cancel against the other operand's."""
    num = LPoly.zero(ctx)
    for _ in range(rng.randrange(1, 4)):
        exps = {"A": rng.randrange(-3, 4), rng.choice(ctx.names[1:]): rng.randrange(-2, 3)}
        num = num + mono(ctx, exps, rng.choice((-4, -1, 1, 2, 6)))
    for f in rng.sample(pool, rng.randrange(0, 3)):
        num = num * f
    dens = [f for f in rng.sample(pool, rng.randrange(0, 4)) for _ in range(rng.randint(1, 3))]
    if dens:
        dens[0] = dens[0].mul_int(rng.choice((1, 2, 3, 6)))
    return Frac.make(num.mul_int(rng.choice((1, 1, 2, 3))), dens)


def test_cancellation_rules_match_full_trial(ctx):
    """Products and integer multiples of reduced fractions over U binomials
    and quantum integers equal the full trial in form: numerator, den_const,
    and factors with their multiplicities in order.  A sum tries no factor:
    it equals the full trial in value, and its reduced form equals the full
    trial's form."""
    rng = random.Random(1301)
    # these factors are pairwise coprime (two U's on one edge included),
    # where the form of the full trial does not depend on its order; any
    # two quantum integers share A^4 - 1 (see
    # test_shared_pieces_keep_results_reduced)
    pool = [u_poly(ctx, {"Q[a0]": 2}, 1), u_poly(ctx, {"Q[a0]": 2}, -2),
            u_poly(ctx, {"Q[a1]": 2}, -1), u_poly(ctx, {"Q[c1]": 2}, 2), quantum_int(ctx, 3)]
    seen = {"mul_cancels": 0, "add_cancels": 0, "shared": 0, "repeated": 0, "zero": 0}
    for _ in range(200):
        a, b = _reduced_frac(ctx, rng, pool), _reduced_frac(ctx, rng, pool)
        r = rng.random()
        if r < 0.05:
            b = a.mul_int(-1)
        elif r < 0.3:
            b = b - a   # a + b is the first b: a's factors cancel
        for fr in (a, b):
            _assert_reduced(fr)
        seen["shared"] += bool(a.factors.keys() & b.factors.keys())
        seen["repeated"] += any(m > 1 for _f, m in (*a.factors.values(), *b.factors.values()))
        prod, total = a * b, a + b
        assert _form(prod) == _form(_full_mul(a, b))
        assert total == _full_add(a, b)
        assert _form(total.reduced()) == _form(_full_add(a, b))
        c = rng.choice((-6, -2, -1, 2, 3, 4))
        assert _form(a.mul_int(c)) == _form(_full_mul_int(a, c))
        for fr in (prod, total.reduced(), a.mul_int(c)):
            _assert_reduced(fr)
        seen["mul_cancels"] += _degree(prod.factors) < _degree(a.factors) + _degree(b.factors)
        seen["add_cancels"] += (not total.is_zero()
                                and _degree(total.reduced().factors) < _degree(total.factors))
        seen["zero"] += total.is_zero()
    assert min(seen.values()) > 5, seen


def test_product_tries_a_shared_key(ctx):
    """A key both operands carry is tried against each numerator: over a
    numerator that it divides, the product drops one copy of it."""
    one = LPoly.const(ctx, 1)
    f = LPoly.a_power(ctx, 4) - one
    g = u_poly(ctx, {"Q[a0]": 2}, 1)
    # 1/f and (f g)/f, the second unreduced, made with the constructor
    a = Frac(ctx, one, 1, {f.key(): (f, 1)})
    b = Frac(ctx, f * g, 1, {f.key(): (f, 1)})
    prod = a * b
    assert _form(prod) == (g, 1, [(f.key(), f, 1)])
    assert prod == Frac.make(g, [f])


def test_reducible_factors_cancel_as_in_full_trial(ctx):
    """A reducible factor whose pieces come from both sides is left by the
    operation and cancels on reading as the full trial cancels it: in a
    product, one piece from each numerator; in a sum, a piece the two lcm
    multipliers share."""
    one = LPoly.const(ctx, 1)
    # U(A Q^2) has the key x^2 - 1 for x = A Q^2, which is (x - 1)(x + 1)
    u = u_poly(ctx, {"Q[a0]": 2}, 1)
    x = mono(ctx, {"A": 1, "Q[a0]": 2})
    a, b = Frac.make(x - one, [u]), Frac.from_poly(x + one)
    (f, m), = a.factors.values()
    assert m == 1 and f == x * x - one
    # U = x^-1 (x^2 - 1): the monomial joins the numerator
    assert _form((a * b).reduced()) == _form(_full_mul(a, b)) == (x, 1, [])
    assert str(a * b) == str(x)
    # (A^4 - 1) / (A^8 - 1) * (A^4 + 1), the pieces of A^8 - 1 gathered over
    # two products
    y = LPoly.a_power(ctx, 4)
    c = Frac.from_poly(y - one) * Frac.make(one, [y * y - one])
    assert _form(c) == _form(_full_mul(Frac.from_poly(y - one), Frac.make(one, [y * y - one])))
    assert _form((c * Frac.from_poly(y + one)).reduced()) \
        == _form(_full_mul(c, Frac.from_poly(y + one))) == (one, 1, [])
    assert c * Frac.from_poly(y + one) == Frac.from_int(ctx, 1)
    # A^12 + 1 = (A^4 + 1)(A^8 - A^4 + 1): its binomial piece is A^4 + 1
    a, b = Frac.make(y + one, [y ** 3 + one]), Frac.from_poly(y * y - y + one)
    assert _form((a * b).reduced()) == _form(_full_mul(a, b)) == (one, 1, [])
    # {1} and {2} have the keys y - 1 and y^2 - 1: over {1}^2 and {1}{2} the
    # multiplicities differ, yet the lcm multipliers {2} and {1} share y - 1
    q1, q2 = quantum_int(ctx, 1), quantum_int(ctx, 2)
    a, b = Frac.make(one, [q1, q1]), Frac.make(one, [q1, q2])
    total = a + b
    assert total == _full_add(a, b)
    assert _form(total.reduced()) == _form(_full_add(a, b))
    assert [(f, m) for f, m in total.reduced().factors.values()] \
        == [(y - one, 1), (y * y - one, 1)]
    _assert_reduced(total.reduced())


def test_shared_pieces_keep_results_reduced(ctx):
    """With factors that share pieces (quantum integers, U binomials on one
    edge and direction), every product and sum reads reduced and equal in
    value to the full trial.  Its form can differ, as the full trial's
    depends on the order in which it tries the factors; one such case is
    pinned."""
    one = LPoly.const(ctx, 1)
    y = LPoly.a_power(ctx, 4)
    a, b = Frac.make(y - one, [y * y - one]), Frac.make(y + one, [y - one])
    # a's numerator cancels b's factor, and A^8 - 1 then divides the product
    # of neither numerator; the full trial tries it first, on (y - 1)(y + 1)
    assert _form((a * b).reduced()) == (y + one, 1, [((y * y - one).key(), y * y - one, 1)])
    assert _form(_full_mul(a, b)) == (one, 1, [((y - one).key(), y - one, 1)])
    assert a * b == _full_mul(a, b)

    rng = random.Random(1313)
    x = mono(ctx, {"A": 1, "Q[a0]": 2})
    pool = [quantum_int(ctx, n) for n in (1, 2, 3, 4)] + [
        u_poly(ctx, {"Q[a0]": 2}, 1), u_poly(ctx, {"Q[a0]": 4}, 2), u_poly(ctx, {"Q[a1]": 2}, 2)]
    pool.append(y ** 3 + one)
    pieces = [y - one, y + one, y * y - y + one, x - one, x + one]
    absent = (None, 0)
    seen = {"same_form": 0, "product_split": 0, "sum_unequal": 0}
    for _ in range(150):
        # a piece in each numerator, so that a factor can split across them
        a, b = (Frac.make(fr.num * rng.choice(pieces),
                          [f for f, m in fr.factors.values() for _ in range(m)])
                for fr in (_reduced_frac(ctx, rng, pool) for _ in range(2)))
        prod, ref_prod = a * b, _full_mul(a, b)
        total, ref_total = a + b, _full_add(a, b)
        for got, ref in ((prod, ref_prod), (total, ref_total)):
            _assert_reduced(got.reduced())
            assert got == ref
            seen["same_form"] += _form(got.reduced()) == _form(ref)
        # a factor the full trial cancels although it divides neither numerator
        seen["product_split"] += any(
            ref_prod.factors.get(k, absent)[1] < a.factors.get(k, absent)[1]
            + b.factors.get(k, absent)[1]
            and a.num.exact_div(f) is None and b.num.exact_div(f) is None
            for k, (f, _m) in (*a.factors.items(), *b.factors.items()))
        # a factor the full trial cancels from a sum that carries it unequally
        seen["sum_unequal"] += any(
            ref_total.factors.get(k, absent)[1] < m
            and a.factors.get(k, absent)[1] != b.factors.get(k, absent)[1]
            for k, (f, m) in _den_lcm(a, b)[1].items()) and not ref_total.is_zero()
    assert min(seen.values()) > 5, seen


def test_chains_read_reduced(ctx):
    """Seeded chains of products, sums and shifts over reducible keys (U's on
    one edge, A^4 - 1, A^8 - 1, A^12 + 1) with pieces of a U split across
    two numerators: each result equals the full-trial chain in value, and
    its reduced and printed forms have no factor dividing the numerator."""
    rng = random.Random(1401)
    one = LPoly.const(ctx, 1)
    x, y, z = mono(ctx, {"A": 1, "Q[a0]": 2}), LPoly.a_power(ctx, 4), mono(ctx, {"A": 1, "Q[a0]": 1})
    # U(A Q^2) = x^-1 (x^2 - 1) and U(A^2 Q^2) = z^-2 (z^4 - 1)
    pool = [u_poly(ctx, {"Q[a0]": 2}, 1), u_poly(ctx, {"Q[a0]": 2}, 2), y - one, y * y - one,
            y ** 3 + one]
    pieces = [x - one, x + one, z - one, z + one, z * z + one, y + one, y * y - y + one]
    seen = {"unreduced": 0, "cancelled_on_read": 0}
    for _ in range(40):
        value = ref = Frac.make(_reduced_frac(ctx, rng, pool).num * rng.choice(pieces),
                                [rng.choice(pool)])
        for _step in range(4):
            op = rng.choice(("mul", "mul", "add", "shift"))
            if op == "shift":
                l = tuple(rng.randint(-2, 2) for _ in ctx.q_slots)
                value, ref = value.shift(l), _full_trial(ref.shift(l))
                continue
            b = Frac.make(_reduced_frac(ctx, rng, pool).num * rng.choice(pieces),
                          [f for f in rng.sample(pool, rng.randint(0, 2))])
            if op == "mul":
                value, ref = value * b, _full_mul(ref, b)
            else:
                value, ref = value + b, _full_add(ref, b)
            assert value == ref
            r = value.reduced()
            _assert_reduced(r)
            assert r == value
            d = r.den()
            assert str(value) == (str(r.num) if d == one else f"{r.num} / {d}")
            unreduced = any(value.num.exact_div(f) is not None for f, _m in value.factors.values())
            seen["unreduced"] += unreduced
            seen["cancelled_on_read"] += _degree(r.factors) < _degree(value.factors)
    assert min(seen.values()) > 5, seen


def test_vanishing_factor_that_cancels_is_evaluated(g2c):
    """(y - 1)(y^2 + 1) / U(A^2 Q^2) * (y + 1), y = A Q[a0], keeps U = y^-2
    (y^4 - 1) in its form; at Q[a0] = A^-1 the factor vanishes, but the
    fraction is y^2 = 1 there."""
    ctx = g2c.ctx
    one = LPoly.const(ctx, 1)
    y = mono(ctx, {"A": 1, "Q[a0]": 1})
    fr = Frac.make((y - one) * (y * y + one), [u_poly(ctx, {"Q[a0]": 2}, 2)]) \
        * Frac.from_poly(y + one)
    assert fr.factors
    F = CycloField(5)
    assign = {"Q[a0]": F.a_power(-1), "Q[a1]": F.one, "Q[c1]": F.one}
    assert specialize_cyclotomic(fr, F, assign).coeffs == (1, 0, 0, 0)


def test_power_matches_repeated_multiplication(g2c):
    ctx = g2c.ctx
    rng = random.Random(43)
    F = CycloField(5)
    poly = u_poly(ctx, {"Q[a0]": 2}, 1) + mono(ctx, {"A": 2, "Q[c1]": -1}, 3)
    frac = _rand_u_frac(ctx, rng)
    cyclo = F.from_coeffs([Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3)))
                           for _ in range(F.deg)])
    elem = (QTElem.e_monomial(g2c, {"a0": 1, "c1": 2}, frac)
            + QTElem.scalar(g2c, Frac.from_poly(poly)))
    for x, one in ((poly, LPoly.const(ctx, 1)), (frac, Frac.from_int(ctx, 1)),
                   (cyclo, F.one), (elem, QTElem.one(g2c))):
        want = one
        for n in range(6):
            assert power(x, n, one) == want == x ** n, (type(x).__name__, n)
            want = want * x


def test_exact_div(ctx):
    p = u_poly(ctx, {"Q[a0]": 2}, 2) * u_poly(ctx, {"Q[a0]": 2}) * LPoly.const(ctx, 3)
    q = p.exact_div(u_poly(ctx, {"Q[a0]": 2}))
    assert q is not None and q == u_poly(ctx, {"Q[a0]": 2}, 2).mul_int(3)
    assert p.exact_div(u_poly(ctx, {"Q[a1]": 2})) is None


def _random_exp(rng, ctx, span):
    return tuple(rng.randint(-span, span) for _ in range(ctx.nvars))


def _random_poly(rng, ctx, n_terms, span=3):
    terms = {}
    for _ in range(n_terms):
        terms[_random_exp(rng, ctx, span)] = rng.choice([-3, -2, -1, 1, 1, 2, 5])
    return LPoly.from_exps(ctx, terms)


def test_binomial_division_matches_long_division(g2b):
    """The coset path agrees with grlex long division, term for term."""
    from skeintorus.exactalg import _div_binomial, _div_long
    ctx = g2b.ctx
    rng = random.Random(20261018)
    seen = {"exact": 0, "inexact": 0}
    for case in range(6000):
        ct, cb = [(1, 1), (1, -1), (-1, 1), (-1, -1)][case % 4]
        span = rng.randint(1, 3)
        t = _random_exp(rng, ctx, span)
        b = _random_exp(rng, ctx, span)
        if t == b:
            continue
        f = LPoly.from_exps(ctx, {t: ct, b: cb})
        # a polynomial in y = x^(t - b) puts several terms on one coset
        w = tuple(x - y for x, y in zip(t, b))
        y_poly = LPoly.from_exps(ctx, {tuple(j * v for v in w): rng.choice([-2, -1, 1, 3])
                                       for j in rng.sample(range(-3, 4), rng.randint(1, 4))})
        q = _random_poly(rng, ctx, rng.randint(1, 4)) * y_poly
        kind = case % 3
        if kind == 0:      # divisible
            p = q * f
        elif kind == 1:    # off by one monomial
            p = q * f + LPoly.from_exps(ctx, {_random_exp(rng, ctx, 4): rng.choice([-1, 1, 2])})
        else:              # usually not a multiple at all
            p = q + _random_poly(rng, ctx, rng.randint(0, 4))
        if p.is_zero():
            continue
        expected = _div_long(p, f)
        assert _div_binomial(p, f) == expected
        assert p.exact_div(f) == expected
        if kind == 0:
            assert expected == q
        seen["exact" if expected is not None else "inexact"] += 1
    assert min(seen.values()) > 1900


def test_divisor_in_one_variable_matches_long_division(g2b):
    """exact_div by a divisor in one variable, which first looks for a
    nonzero remainder over GF(P), agrees with grlex long division; leading
    coefficients include P itself, where the walk alone decides."""
    ctx = g2b.ctx
    rng = random.Random(20261019)
    leads = (1, -1, 2, 3, -5, 2 ** 61 - 1)
    seen = {"exact": 0, "inexact": 0}
    for case in range(900):
        i = rng.randrange(ctx.nvars)
        deg = rng.randint(1, 4)
        coeffs = {j: rng.choice((-3, -1, 0, 1, 2, 4)) for j in range(deg)}
        coeffs[deg] = leads[case % len(leads)]
        base = _random_exp(rng, ctx, 2)
        f = LPoly.from_exps(ctx, {tuple(b + j * (k == i) for k, b in enumerate(base)): c
                                  for j, c in coeffs.items()})
        q = _random_poly(rng, ctx, rng.randint(1, 5))
        kind = case % 3
        if kind == 0:      # divisible
            p = q * f
        elif kind == 1:    # off by one monomial
            p = q * f + LPoly.from_exps(ctx, {_random_exp(rng, ctx, 4): rng.choice([-1, 1, 2])})
        else:              # usually not a multiple at all
            p = q + _random_poly(rng, ctx, rng.randint(0, 4))
        if p.is_zero():
            continue
        expected = _div_long(p, f)
        assert p.exact_div(f) == expected
        seen["exact" if expected is not None else "inexact"] += 1
    assert min(seen.values()) > 250, seen


def test_inexact_division_skips_the_walk(ctx, monkeypatch, capsys):
    """(A^1000000 + 1) / (A^2 + A + 1) is decided without long division,
    whose walk would take time linear in the exponent, and so are the
    divisions by A^2 + A Q[a0] + 1, in two variables, that the command
    ``sigma --expr "(A^100000 + Q[a0]) / (A^2 + A*Q[a0] + 1)"`` makes."""
    from skeintorus import exactalg
    from skeintorus.cli import main
    one = LPoly.const(ctx, 1)
    f = LPoly.a_power(ctx, 2) + LPoly.a_power(ctx, 1) + one
    exact = LPoly.a_power(ctx, 3000) - one
    assert exact.exact_div(f) == _div_long(exact, f) is not None

    def no_walk(p, f):
        raise AssertionError("long division walked an inexact dividend")

    monkeypatch.setattr(exactalg, "_div_long", no_walk)
    p = LPoly.a_power(ctx, 1000000) + one
    assert p.exact_div(f) is None
    assert (p * mono(ctx, {"Q[a0]": 3}) + mono(ctx, {"Q[a1]": 1}) * f).exact_div(f) is None
    assert main(["sigma", "--genus", "2", "--closed", "--expr",
                 "(A^100000 + Q[a0]) / (A^2 + A*Q[a0] + 1)"]) == 0
    assert capsys.readouterr().out == \
        "( (1)*A^100000 + (1)*Q[a0] ) / ( (1)*A^2 + (1)*A*Q[a0] + (1) )\n"


def test_divisor_in_several_variables_matches_long_division(g2b):
    """exact_div by a divisor of three or more terms in one to three
    variables, whose image over GF(P) with all but one variable sent to
    residues is tried first, agrees with grlex long division."""
    ctx = g2b.ctx
    rng = random.Random(20261020)
    seen = {"exact": 0, "inexact": 0}
    for case in range(600):
        used = rng.sample(range(ctx.nvars), rng.randint(1, 3))
        f = LPoly.zero(ctx)
        while len(f.terms) < 3:
            f = f + LPoly.from_exps(ctx, {tuple(rng.randint(0, 2) * (j in used)
                                                for j in range(ctx.nvars)):
                                          rng.choice((-2, -1, 1, 3))})
        q = _random_poly(rng, ctx, rng.randint(1, 4))
        p = q * f if case % 2 else q * f + _random_poly(rng, ctx, 1, 4)
        if p.is_zero():
            continue
        expected = _div_long(p, f)
        assert p.exact_div(f) == expected
        seen["exact" if expected is not None else "inexact"] += 1
    assert min(seen.values()) > 250, seen


def test_non_unit_binomial_takes_long_division(ctx, monkeypatch):
    from skeintorus import exactalg
    x = mono(ctx, {"Q[a0]": 1, "A": -1})
    f = x.mul_int(2) - LPoly.const(ctx, 1)      # 2x - 1
    q = x * x + LPoly.const(ctx, 3)

    def no_binomial_path(p, f):
        raise AssertionError("binomial path taken for 2x - 1")

    monkeypatch.setattr(exactalg, "_div_binomial", no_binomial_path)
    assert (q * f).exact_div(f) == q
    assert (q * f + x).exact_div(f) is None
    assert (q * f).exact_div(f) == exactalg._div_long(q * f, f)


def test_arith_operators(ctx):
    a = LPoly.a_power(ctx, 1)
    b = u_poly(ctx, {"Q[a0]": 2})
    a_plus_b = LPoly.from_exps(ctx, {(1, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, -2, 0, 0): -1})
    a_times_b = LPoly.from_exps(ctx, {(1, 2, 0, 0): 1, (1, -2, 0, 0): -1})
    minus_a = LPoly.from_exps(ctx, {(1, 0, 0, 0): -1})
    assert a + b == a_plus_b
    assert a * b == a_times_b
    assert -a == minus_a
    fa, fb = Frac.from_poly(a), Frac.from_poly(b)
    assert fa + fb == Frac.from_poly(a_plus_b)
    assert fa * fb == Frac.from_poly(a_times_b)
    assert -fa == Frac.from_poly(minus_a)
    assert fb.inv() * fb == Frac.from_int(ctx, 1)


# -- packed monomial keys against a tuple-dict reference -----------------------

def _tref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _tref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _tref_clean(out)


def _tref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _tref_clean(out)


def _tref_shift(a, l, q_slots):
    out = {}
    for e, c in a.items():
        e2 = (e[0] + sum(le * e[s] for le, s in zip(l, q_slots)),) + e[1:]
        out[e2] = out.get(e2, 0) + c
    return _tref_clean(out)


def _tref_sub_a_squared(a):
    return {(2 * e[0],) + e[1:]: c for e, c in a.items()}


def _fits(terms):
    return all(EXP_MIN <= v <= EXP_MAX for e in terms for v in e)


def _check_against(want, got):
    """``got()`` equals the reference terms ``want``, or raises
    ExponentOverflow exactly when an exponent of ``want`` leaves the range."""
    if _fits(want):
        assert dict(got().exp_items()) == want
    else:
        with pytest.raises(ExponentOverflow):
            got()


def _edge_exp(rng, span=3):
    """Mostly small exponents, some at or next to either end of the range."""
    if rng.random() < 0.8:
        return rng.randint(-span, span)
    return rng.choice((EXP_MAX - rng.randint(0, 2), EXP_MIN + rng.randint(0, 2)))


def _edge_terms(rng, ctx, n_terms, margin=0):
    """Random terms whose exponents stay ``margin`` inside the range."""
    terms = {}
    for _ in range(n_terms):
        e = tuple(max(EXP_MIN + margin, min(EXP_MAX - margin, _edge_exp(rng)))
                  for _ in range(ctx.nvars))
        terms[e] = rng.choice((-3, -2, -1, 1, 1, 2, 5))
    return terms


def test_packed_arithmetic_matches_tuple_reference(g2b):
    ctx = g2b.ctx
    rng = random.Random(20261019)
    seen = {"ok": 0, "overflow": 0}
    for _ in range(1500):
        a, b = (_edge_terms(rng, ctx, rng.randint(0, 5)) for _ in range(2))
        pa, pb = LPoly.from_exps(ctx, a), LPoly.from_exps(ctx, b)
        assert dict(pa.exp_items()) == _tref_clean(a)
        assert dict((pa + pb).exp_items()) == _tref_add(a, b)
        assert dict((pa - pb).exp_items()) == _tref_add(a, {e: -c for e, c in b.items()})
        want = _tref_mul(a, b)
        _check_against(want, lambda: pa * pb)
        seen["ok" if _fits(want) else "overflow"] += 1
        m = tuple(_edge_exp(rng, 2) for _ in range(ctx.nvars))
        if _fits({m: 1}):
            _check_against(_tref_mul(a, {m: -2}), lambda: pa.mul_monomial(ctx.pack(m), -2))
        l = tuple(rng.randint(-2, 2) for _ in ctx.q_slots)
        _check_against(_tref_shift(a, l, ctx.q_slots), lambda: pa.shift(l))
        _check_against(_tref_sub_a_squared(a), lambda: pa.sub_a_squared())
    assert min(seen.values()) > 100


def test_packed_exact_division_matches_tuple_reference(g2b):
    """Exact and inexact divisions with quotient exponents near both ends."""
    ctx = g2b.ctx
    rng = random.Random(20261020)
    n_binomial = 0
    for case in range(1200):
        n_f = 2 if case % 3 else 3
        f = {}
        while len(f) < n_f:
            f[tuple(rng.randint(-2, 2) for _ in range(ctx.nvars))] = rng.choice((1, -1))
        # q keeps the divisor's exponent span inside the range, so q f fits
        q = _edge_terms(rng, ctx, rng.randint(1, 4), margin=2)
        p = _tref_mul(q, f)
        if not p:
            continue
        pf, fp = LPoly.from_exps(ctx, p), LPoly.from_exps(ctx, f)
        assert dict(pf.exact_div(fp).exp_items()) == q
        n_binomial += n_f == 2
        # plus a monomial, never divisible by a non-unit.  Long division of an
        # inexact dividend may walk its whole exponent span: small ones only
        if n_f == 3 and any(max(map(abs, e)) > 10 for e in p):
            continue
        m = tuple(rng.randint(-3, 3) for _ in range(ctx.nvars))
        assert (pf + LPoly.from_exps(ctx, {m: 1})).exact_div(fp) is None
    assert n_binomial > 700


def test_every_key_path_raises_one_step_past_the_range(g2b):
    ctx = g2b.ctx
    n = ctx.nvars

    def unit(i, v):
        e = [0] * n
        e[i] = v
        return tuple(e)

    for i in range(n):
        for edge, step in ((EXP_MAX, 1), (EXP_MIN, -1)):
            at, past = unit(i, edge), unit(i, edge + step)
            # constructors
            assert dict(LPoly.from_exps(ctx, {at: 3}).exp_items()) == {at: 3}
            with pytest.raises(ExponentOverflow):
                LPoly.from_exps(ctx, {past: 3})
            with pytest.raises(ExponentOverflow):
                LPoly.monomial(ctx, {ctx.names[i]: edge + step})
            # products: monomial, general, and by a monomial key
            x = LPoly.from_exps(ctx, {unit(i, edge - step): 1})
            one_step = LPoly.from_exps(ctx, {unit(i, step): 1})
            assert dict((x * one_step).exp_items()) == {at: 1}
            with pytest.raises(ExponentOverflow):
                x * one_step * one_step
            two = LPoly.from_exps(ctx, {at: 1, unit(i, 0): 1})
            with pytest.raises(ExponentOverflow):
                two * (one_step + LPoly.const(ctx, 1))
            with pytest.raises(ExponentOverflow):
                two.mul_monomial(ctx.pack(unit(i, step)))
    # U(A^a) = A^a - A^-a needs -a in range too
    assert len(u_poly(ctx, {}, EXP_MAX).terms) == 2
    for a in (EXP_MAX + 1, EXP_MIN):
        with pytest.raises(ExponentOverflow):
            u_poly(ctx, {}, a)
    # shift: Q_e -> A^l Q_e moves only the A exponent
    q0 = ctx.q_slots[0]
    x = LPoly.from_exps(ctx, {tuple(EXP_MAX - 1 if j == 0 else int(j == q0)
                                    for j in range(n)): 1})
    assert dict(x.shift((1,)).exp_items()) == {tuple(EXP_MAX if j == 0 else int(j == q0)
                                                     for j in range(n)): 1}
    with pytest.raises(ExponentOverflow):
        x.shift((2,))
    with pytest.raises(ExponentOverflow):
        LPoly.from_exps(ctx, {unit(q0, EXP_MAX): 1}).shift((2,))
    # A -> A^2
    half = EXP_MAX // 2 + 1
    assert LPoly.a_power(ctx, half - 1).sub_a_squared() == LPoly.a_power(ctx, 2 * half - 2)
    assert LPoly.a_power(ctx, -half).sub_a_squared() == LPoly.a_power(ctx, EXP_MIN)
    for a in (half, -half - 1):
        with pytest.raises(ExponentOverflow):
            LPoly.a_power(ctx, a).sub_a_squared()
    # exact division: binomial quotient A^(EXP_MAX + 1), and by grlex long division
    top = LPoly.a_power(ctx, EXP_MAX) - LPoly.a_power(ctx, EXP_MAX - 1)
    assert top.exact_div(LPoly.const(ctx, 1) - LPoly.a_power(ctx, -1)) \
        == LPoly.a_power(ctx, EXP_MAX)
    with pytest.raises(ExponentOverflow):
        top.exact_div(LPoly.a_power(ctx, -1) - LPoly.a_power(ctx, -2))
    bottom = LPoly.a_power(ctx, EXP_MIN + 1) - LPoly.a_power(ctx, EXP_MIN)
    with pytest.raises(ExponentOverflow):
        bottom.exact_div(LPoly.a_power(ctx, 2) - LPoly.a_power(ctx, 1))
    three = sum((LPoly.a_power(ctx, EXP_MAX - k) for k in range(3)), LPoly.zero(ctx))
    assert three.exact_div(sum((LPoly.a_power(ctx, -k) for k in range(3)),
                               LPoly.zero(ctx))) == LPoly.a_power(ctx, EXP_MAX)
    with pytest.raises(ExponentOverflow):
        three.exact_div(sum((LPoly.a_power(ctx, -k) for k in range(1, 4)), LPoly.zero(ctx)))
    # fractions: clearing the monomial content of a denominator factor
    with pytest.raises(ExponentOverflow):
        Frac.make(LPoly.const(ctx, 1), [LPoly.a_power(ctx, EXP_MIN) + LPoly.const(ctx, 1)])
    with pytest.raises(ExponentOverflow):
        Frac.from_poly(LPoly.a_power(ctx, EXP_MAX)).mul_monomial({"A": 1})


def test_binomial_coset_keys_fit_their_slots(g2b):
    # reduced along the slot of largest |w_i|, every coset representative
    # fits its slot.  Reduced along A here (w_A = 2^20 < w_Q[a0] = 2^22), the
    # representatives of these two terms would differ by 2^32 in Q[a0] and
    # by -1 in Q[a1], so their keys would be equal and the inexact division
    # would look exact
    ctx = g2b.ctx
    n = ctx.nvars
    f = LPoly.from_exps(ctx, {(2 ** 20, 2 ** 22) + (0,) * (n - 2): 1, (0,) * n: -1})
    p = LPoly.from_exps(ctx, {(EXP_MIN, 2 ** 22) + (0,) * (n - 2): 1,
                              (EXP_MAX + 1 - 2 ** 20, 0, 1) + (0,) * (n - 3): -1})
    assert p.exact_div(f) is None is _div_long(p, f)


# -- products whose operands decide the work, against the plain pair loop ------

HALF = 1 << 28  # half-range operands: exponents in [-HALF, HALF - 1]


def _pair_loop(p, q):
    """p * q by the loop over every pair of terms, the shorter operand
    outside, every key checked."""
    ctx = p.ctx
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb - ctx.one
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    ctx.check(out)
    return LPoly(ctx, out)


def _outcome(product):
    """The terms of ``product()`` in order, or the text of its ExponentOverflow."""
    try:
        return list(product().terms.items())
    except ExponentOverflow as exc:
        return str(exc)


def _assert_matches_pair_loop(p, q):
    assert _outcome(lambda: p * q) == _outcome(lambda: _pair_loop(p, q))
    assert _outcome(lambda: q * p) == _outcome(lambda: _pair_loop(q, p))


def _sized_exp(rng, ctx, used, scale):
    """An exponent vector with nonzero entries only in the slots ``used``:
    small, or within 3 of either end of the half range (``scale`` 1) or of
    the full range (``scale`` 2)."""
    ends = (None, (HALF - 1, -HALF), (EXP_MAX, EXP_MIN))[scale]
    e = [0] * ctx.nvars
    for i in used:
        if ends is None or rng.random() < 0.5:
            e[i] = rng.randint(-4, 4)
        else:
            top, bottom = ends
            e[i] = rng.choice((top - rng.randint(-3, 3), bottom + rng.randint(-3, 3)))
            e[i] = max(EXP_MIN, min(EXP_MAX, e[i]))
    return tuple(e)


def _sized_poly(rng, ctx, used, n_terms, scale):
    return LPoly.from_exps(ctx, {_sized_exp(rng, ctx, used, scale): rng.choice((-3, -2, -1, 1, 2, 5))
                                 for _ in range(n_terms)})


def test_products_match_the_pair_loop(g2b):
    ctx = g2b.ctx
    rng = random.Random(20261022)
    seen = {"ok": 0, "overflow": 0, "guard_skipped": 0}
    for case in range(700):
        used = rng.sample(range(ctx.nvars), rng.randint(2, 5))
        scale = case % 3
        p, q = (_sized_poly(rng, ctx, used, rng.randint(1, 40), scale) for _ in range(2))
        if case % 5 == 0:
            # (s + t)(s - t) = s^2 - t^2: the cross terms cancel
            p, q = p + q, p - q
        _assert_matches_pair_loop(p, q)
        got = _outcome(lambda: p * q)
        seen["overflow" if isinstance(got, str) else "ok"] += 1
        seen["guard_skipped"] += (not isinstance(got, str)
                                  and len(p.terms) + len(q.terms) < len(got)
                                  and ctx._half_range(p.terms) and ctx._half_range(q.terms))
    assert min(seen.values()) > 50, seen


def test_one_term_products_match_the_pair_loop(g2b):
    ctx = g2b.ctx
    rng = random.Random(20261023)
    one = LPoly.const(ctx, 1)
    for _ in range(200):
        used = rng.sample(range(ctx.nvars), rng.randint(2, 5))
        p = _sized_poly(rng, ctx, used, rng.randint(1, 12), rng.randrange(3))
        mono = _sized_poly(rng, ctx, used, 1, rng.randrange(3))
        for factor in (one, LPoly.const(ctx, -1), LPoly.const(ctx, 7), mono):
            _assert_matches_pair_loop(p, factor)
        assert p * one is p
        if len(p.terms) > 1:
            assert one * p is p
    assert LPoly.zero(ctx) * one == LPoly.zero(ctx) == one * LPoly.zero(ctx)


def test_half_range_boundaries(g2b):
    ctx = g2b.ctx
    one = LPoly.const(ctx, 1)
    for name in ("A", ctx.names[ctx.q_slots[0]]):
        def x(k):
            return LPoly.monomial(ctx, {name: k})

        u, v = [LPoly.monomial(ctx, {n: 1}) for n in ctx.names if n != name][:2]

        def forms(j, k):
            """x^j times x^k, as monomials and inside operands of two and
            three terms, whose product has six: more keys than both hold."""
            return (x(j), x(k)), (x(j) + u, x(k) + v + one)

        for j, k in ((HALF - 1, HALF - 1), (-HALF, -HALF), (HALF + 5, -HALF - 3)):
            for p, q in forms(j, k):
                product = p * q
                assert product == _pair_loop(p, q)
                assert x(j + k).terms.keys() <= product.terms.keys()
        assert (x(-HALF) * x(-HALF)).terms == x(EXP_MIN).terms
        for p, q in forms(HALF, HALF):
            with pytest.raises(ExponentOverflow) as exc:
                p * q
            assert exc.value.name == name


def test_equal_denominator_sums_match_the_lcm_route(ctx):
    rng = random.Random(20261024)
    n_zero = 0
    for case in range(200):
        a = _rand_u_frac(ctx, rng)
        num = _rand_u_frac(ctx, rng).num if case % 5 else -a.num
        # the same factors in the reverse order: the sum keeps a's order
        b = Frac(ctx, num, a.den_const, dict(reversed(a.factors.items())))
        lc, fac, a_extra, b_extra = _den_lcm(a, b)
        want = Frac(ctx, a.num * a_extra + b.num * b_extra, lc, fac)._const_reduced()
        got = a + b
        assert list(got.num.terms.items()) == list(want.num.terms.items())
        assert got.den_const == want.den_const
        assert list(got.factors.items()) == list(want.factors.items())
        n_zero += got.is_zero()
    assert n_zero >= 30


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``LPoly.__mul__`` and ``_den_lcm`` calls, from wrappers."""
    calls = {"mul": 0, "lcm": 0}
    real_mul, real_lcm = LPoly.__mul__, exactalg._den_lcm

    def mul(x, y):
        calls["mul"] += 1
        return real_mul(x, y)

    def den_lcm(x, y):
        calls["lcm"] += 1
        return real_lcm(x, y)

    monkeypatch.setattr(LPoly, "__mul__", mul)
    monkeypatch.setattr(exactalg, "_den_lcm", den_lcm)
    return calls


def test_product_by_one_is_the_operand(ctx):
    p = u_poly(ctx, {"Q[a0]": 2}, 1) + mono(ctx, {"A": 3}, 2)
    assert p * LPoly.const(ctx, 1) is p


def test_equal_denominator_sum_multiplies_nothing(ctx, counted):
    p = u_poly(ctx, {"Q[a0]": 2}, 1) + mono(ctx, {"A": 3}, 2)
    a = Frac.make(p, [u_poly(ctx, {"Q[a1]": 2}, 1), u_poly(ctx, {"Q[c1]": 2})])
    b = Frac(ctx, mono(ctx, {"Q[a0]": 1}), a.den_const, a.factors)
    counted.update(mul=0, lcm=0)
    assert (a + b).num == a.num + b.num
    assert counted == {"mul": 0, "lcm": 0}


def test_identities_g2_product_count(counted):
    # the genus-2 pass of the benchmark: 2,027 products before one-term
    # operands and equal denominators skipped theirs
    for argv in (["identities", "--genus", "2", "--closed", "--suite", "all"],
                 ["identities", "--genus", "2", "--suite", "all"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
    assert 0 < counted["mul"] <= 1000


# -- cyclotomic ---------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(10) == [1, -1, 1, -1, 1]
    # x^8 - x^7 + x^5 - x^4 + x^3 - x + 1
    assert cyclotomic_polynomial(15) == [1, -1, 0, 1, -1, 1, 0, -1, 1]


@pytest.mark.parametrize("p", [3, 5])
def test_root_of_unity_orders(p):
    F = CycloField(p)
    one = F.one
    assert F.a_power(p) == -one
    assert F.a_power(2 * p) == one
    for k in range(1, 2 * p):
        assert F.a_power(k) != one
    # (-A)^p = 1
    assert F.minus_a_power(1) ** p == one


def test_specialize_examples(g2c):
    ctx = g2c.ctx
    assert specialize_cyclotomic(Frac.from_poly(LPoly.a_power(ctx, 3)), CycloField(3), {}) \
        == CycloField(3).from_rational(-1)
    for p in (3, 5, 7):
        F = CycloField(p)
        minus_a = Frac.from_poly(LPoly.monomial(ctx, {"A": 1}, -1))
        assert specialize_cyclotomic(minus_a, F, {}) ** p == F.one
        qp = Frac.from_poly(quantum_int(ctx, p))
        assert specialize_cyclotomic(qp, F, {}).is_zero()


def test_specialize_is_ring_homomorphism(g2c):
    ctx = g2c.ctx
    F = CycloField(3)
    assign = {"Q[a0]": F.from_rational(2), "Q[a1]": F.from_rational(Fraction(3, 5)),
              "Q[c1]": F.from_rational(7)}
    rng = random.Random(3)

    def rand_frac():
        num = LPoly.zero(ctx)
        for _ in range(rng.randrange(1, 4)):
            num = num + LPoly.monomial(
                ctx, {n: rng.randrange(-2, 3) for n in ("A", "Q[a0]", "Q[a1]")},
                rng.randrange(-3, 4) or 2)
        dens = [u_poly(ctx, {"Q[c1]": 2}, k) for k in ([1] if rng.random() < 0.5 else [])]
        return Frac.make(num, dens)

    for _ in range(40):
        a, b = rand_frac(), rand_frac()
        ev = lambda f: specialize_cyclotomic(f, F, assign)
        assert ev(a + b) == ev(a) + ev(b)
        assert ev(a * b) == ev(a) * ev(b)


def test_specialize_zero_denominator_signals(g2c):
    ctx = g2c.ctx
    F = CycloField(3)
    # U(Q^2) with Q -> 1 vanishes
    f = Frac.make(LPoly.const(ctx, 1), [u_poly(ctx, {"Q[a0]": 2})])
    assign = {"Q[a0]": F.one, "Q[a1]": F.one, "Q[c1]": F.one}
    with pytest.raises(SpecializationError):
        specialize_cyclotomic(f, F, assign)


def test_parse_cyclo_scalar():
    from skeintorus import parse_cyclo_scalar
    F = CycloField(3)
    assert parse_cyclo_scalar(F, "2") == F.from_rational(2)
    assert parse_cyclo_scalar(F, "-5/7") == F.from_rational(Fraction(-5, 7))
    assert parse_cyclo_scalar(F, "2*(-A)^4") == F.from_rational(2) * F.minus_a_power(4 % 3)
    assert parse_cyclo_scalar(F, "A^3") == -F.one
    assert parse_cyclo_scalar(F, "[1, 2]") == F.one + F.from_rational(2) * F.a_power(1)


@pytest.mark.parametrize("text", ["2**3", "*", "", "2*", "True", "None", "null", "1_0",
                                  "\u0663", "2/", "/3", "1.5/2", "- 3", "A^", "A^1.5",
                                  "a", "[]", "[1,]", "[A]", "[1, 2", "-(-A)^2"])
def test_parse_cyclo_scalar_refusals(text):
    from skeintorus import parse_cyclo_scalar
    with pytest.raises(ValueError) as err:
        parse_cyclo_scalar(CycloField(3), text)
    assert str(err.value) == f"bad cyclotomic literal {text!r}"


def test_parse_cyclo_scalar_keeps_exponent_notation_and_zero_denominator_errors():
    from skeintorus import parse_cyclo_scalar
    F = CycloField(3)
    for text in ("1e3", "1.E3", "[1e3000,0]", "2*A^3*1E3", "1e+300"):
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            parse_cyclo_scalar(F, text)
    with pytest.raises(ZeroDivisionError):
        parse_cyclo_scalar(F, "1/0")


def _random_scalar_piece(rng, kinds=6):
    """A random factor of a scalar literal, with its value as (Fraction, power
    of A); kinds=3 draws rational numbers only."""
    kind = rng.randrange(kinds)
    sign = rng.choice(["", "-", "+"])
    s = -1 if sign == "-" else 1
    if kind == 0:
        n = rng.randrange(0, 50)
        return f"{sign}{n}", (Fraction(s * n), 0)
    if kind == 1:
        n, d = rng.randrange(0, 50), rng.randrange(1, 50)
        return f"{sign}{n}/{d}", (Fraction(s * n, d), 0)
    if kind == 2:
        i, f = rng.choice(["", "0", "12"]), rng.choice(["", "5", "25", "075"])
        if not i and not f:
            f = "5"
        value = Fraction(int(i or 0)) + Fraction(int(f or 0), 10 ** len(f))
        return f"{sign}{i}.{f}", (s * value, 0)
    k = rng.randrange(-9, 10)
    exp = rng.choice([f"^{k}", f" ^ {k}", f"^+{k}" if k >= 0 else f"^{k}"])
    if kind == 3:
        return "A" + exp, (Fraction(1), k)
    if kind == 4 and rng.random() < 0.3:
        return rng.choice(["-A", "(-A)"]), (Fraction(-1), 1)
    return rng.choice(["-A", "(-A)"]) + exp, (Fraction((-1) ** (k % 2)), k)


def test_parse_cyclo_scalar_matches_reference_product():
    from skeintorus import parse_cyclo_scalar
    rng = random.Random(1136)
    for p in (3, 5, 7):
        F = CycloField(p)
        for _ in range(150):
            pieces = [_random_scalar_piece(rng) for _ in range(rng.randrange(1, 5))]
            text = rng.choice(["*", " * ", "* "]).join(t for t, _v in pieces)
            coeff, k = Fraction(1), 0
            for _t, (c, j) in pieces:
                coeff, k = coeff * c, k + j
            assert parse_cyclo_scalar(F, text) == F.from_rational(coeff) * F.a_power(k), text
            coeffs = [_random_scalar_piece(rng, 3) for _ in range(rng.randrange(1, F.deg + 1))]
            text = "[" + rng.choice([",", ", "]).join(t for t, _v in coeffs) + "]"
            assert parse_cyclo_scalar(F, text) == F.from_coeffs(c for _t, (c, _j) in coeffs)


def test_key_of_matches_pack(g2b):
    ctx = g2b.ctx
    rng = random.Random(150)
    ends = [EXP_MIN, EXP_MIN + 1, -1, 0, 1, EXP_MAX - 1, EXP_MAX]
    for _ in range(300):
        names = rng.sample(ctx.names, rng.randrange(0, ctx.nvars + 1))
        exps = {n: rng.choice(ends) if rng.random() < 0.5 else rng.randrange(-99, 100)
                for n in names}
        assert ctx.key_of(exps) == ctx.pack([exps.get(n, 0) for n in ctx.names]), exps
    for bad in (EXP_MIN - 1, EXP_MAX + 1):
        with pytest.raises(ExponentOverflow) as err:
            ctx.key_of({"A": 1, "Q[b1]": bad})
        assert err.value.name == "Q[b1]" and str(bad) in str(err.value)


def _ref_mul(a, b, modulus):
    """Product of Fraction coefficient vectors modulo the monic ``modulus``."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    deg = len(modulus) - 1
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        for i, m in enumerate(modulus):
            prod[k - deg + i] -= c * m
    return tuple(prod[:deg])


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.den == 1 or any(x.num)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_matches_fraction_reference(p):
    F = CycloField(p)
    mod = cyclotomic_polynomial(2 * p)
    one = (Fraction(1),) + (Fraction(0),) * (F.deg - 1)
    rng = random.Random(900 + p)

    def rand_coeffs():
        return [Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, 4, 6, 9, 35)))
                if rng.random() < 0.7 else Fraction(0) for _ in range(F.deg)]

    for _ in range(1000):
        ca, cb = rand_coeffs(), rand_coeffs()
        a, b = F.from_coeffs(ca), F.from_coeffs(cb)
        assert a.coeffs == tuple(ca) and b.coeffs == tuple(cb)
        ab, aa = _ref_mul(ca, cb, mod), _ref_mul(ca, ca, mod)
        results = {
            "add": (a + b, tuple(x + y for x, y in zip(ca, cb))),
            "sub": (a - b, tuple(x - y for x, y in zip(ca, cb))),
            "neg": (-a, tuple(-x for x in ca)),
            "mul": (a * b, ab),
            "square": (a ** 2, aa),
            "sum": (F.sum([a, b, -a, b]), tuple(2 * y for y in cb)),
        }
        for op, (got, want) in results.items():
            assert got.coeffs == want, op
            _assert_canonical(got)
        if a.is_zero():
            with pytest.raises(InversionError):
                a.inv()
            continue
        ai = a.inv()
        _assert_canonical(ai)
        assert _ref_mul(ca, ai.coeffs, mod) == one
        assert a * ai == F.one
        n = rng.randrange(1, 4)
        a_pow = ca
        for _ in range(n - 1):
            a_pow = _ref_mul(a_pow, ca, mod)
        assert _ref_mul(a_pow, (a ** -n).coeffs, mod) == one
        # the same value reached two ways has one form
        q = b / a
        for same in (q * a, (b + a) - a, F.from_coeffs(2 * c / 2 for c in cb)):
            assert same == b and hash(same) == hash(b)
            assert (same.num, same.den) == (b.num, b.den)


@pytest.mark.parametrize("p", [3, 5, 7, 9])
def test_cyclo_columns_match_cyclo_arithmetic(p):
    # p = 9 is composite: Phi_18 has degree 6
    F = CycloField(p)
    rng = random.Random(2000 + p)

    def value():
        kind = rng.random()
        if kind < 0.2:
            return F.zero
        if kind < 0.4:  # a rational: every column but the first is zero
            return F.from_rational(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 5, 12))))
        return F.from_coeffs([Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, 7, 9)))
                              if rng.random() < 0.7 else 0 for _ in range(F.deg)])

    def den_of(values):
        return lcm(*(v.den for v in values)) * rng.choice((1, 1, 6))

    for _ in range(60):
        n = rng.randrange(1, 7)
        vals = [[value() for _ in range(n)] for _ in range(4)]
        dens = [den_of(vs) for vs in vals]
        cols = [F.columns(vs, d) for vs, d in zip(vals, dens)]
        for vs, d, cs in zip(vals, dens, cols):
            assert len(cs) == F.deg
            assert all(c is None or (len(c) == n and any(c)) for c in cs)
            assert [c is None for c in cs] == [not any(v.num[i] for v in vs)
                                                for i in range(F.deg)]
            back = F.from_columns(cs, d, n)
            assert back == vs
            for v in back:
                _assert_canonical(v)
        a, b, c, d = vals
        # a*b + c*d per entry, over one denominator: a and c on da, b and d on db
        da, db = den_of(a + c), den_of(b + d)
        acc = [None] * (2 * F.deg - 1)
        F.mul_columns(acc, F.columns(a, da), F.columns(b, db))
        F.mul_columns(acc, F.columns(c, da), F.columns(d, db))
        got = F.from_columns(F.reduce_columns(acc), da * db, n)
        assert got == [x * y + z * w for x, y, z, w in zip(a, b, c, d)]
        # a*b - a*b cancels: every column of the reduction is zero, so None
        acc = [None] * (2 * F.deg - 1)
        F.mul_columns(acc, cols[0], cols[1])
        F.mul_columns(acc, F.columns([-x for x in a], dens[0]), cols[1])
        assert F.reduce_columns(acc) == [None] * F.deg
        for x, y, z, w in zip(a, b, c, d):
            assert F.products_equal(x, y, z, w) == (x * y == z * w)
            if w:
                assert F.products_equal(x, y, x * y / w, w)
    # no column at all: n zeros
    assert F.from_columns([None] * F.deg, 7, 3) == [F.zero] * 3


def test_products_equal_scales_each_side_by_the_other_sides_denominators():
    # (1/2) * 2 == 1 * 1 and (1/2) * 1 != 2 * 1; a test that scaled each side
    # by its own denominators would answer both the other way round
    F = CycloField(5)
    half, one, two = (F.from_rational(r) for r in (Fraction(1, 2), 1, 2))
    assert F.products_equal(half, two, one, one)
    assert not F.products_equal(half, one, two, one)


def _as_rational(c):
    """The rational number a cyclotomic value is, or None if it is not one."""
    if any(c.num[1:]):
        return None
    return Fraction(c.num[0], c.den)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_zero_and_rationals_are_canonical(p):
    F = CycloField(p)
    assert (F.zero.num, F.zero.den) == ((0,) * F.deg, 1)
    with pytest.raises(InversionError):
        F.zero.inv()
    with pytest.raises(InversionError):
        F.zero ** -2
    half = F.from_rational(Fraction(1, 2))
    assert half - half == F.zero and (half - half).den == 1
    assert F.from_coeffs(["3/6", "0"]) == half and str(half) == "[1/2" + ", 0" * (F.deg - 1) + "]"
    assert (half + half) == F.one and hash(half + half) == hash(F.one)
    assert _as_rational(F.from_rational(Fraction(-4, 6)).inv()) == Fraction(-3, 2)
