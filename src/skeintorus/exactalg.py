"""Exact commutative substrate: Laurent polynomials, fractions, cyclotomics.

A Laurent polynomial is a dictionary mapping monomial keys to arbitrary
precision integers.  The variables of the ambient context are ordered:
slot 0 is always the twist variable ``A``, followed by one ``Q`` variable
per internal edge and one ``C`` variable per boundary edge of the underlying
trivalent graph.  A monomial's key is one Python integer that packs its
exponents into fixed 32-bit slots, slot i holding ``e_i + 2^31`` at bit
``32 i``, so the monomial 1 has the key ``VarContext.one``.  Every exponent
lies in ``[EXP_MIN, EXP_MAX] = [-2^29, 2^29 - 1]``.  That leaves a slot room
for any sum of two exponents, and for the coset representatives of the
binomial division (see ``_div_binomial``), so these never carry from one
slot into the next: the product of two monomials has the key
``ka + kb - one``, and ``j`` steps along an exponent difference ``w`` add
``j`` times the key difference.  Each operation checks the keys it makes,
with one XOR and mask of the three top bits of each slot, and raises
``ExponentOverflow`` when an exponent would leave the range; a key never
wraps.  Code that needs exponent tuples (printing, the grlex order, long
division, evaluation) unpacks at its edge with ``VarContext.unpack``.  Zero
coefficients are never stored, so the zero polynomial is the empty dict.

Fractions are stored with a *factored* denominator: a positive integer
constant times a multiset of primitive, monomial-content-free polynomial
factors with positive leading coefficient under graded lexicographic order.
This keeps the usual normal form (the expanded denominator has zero minimal
exponent in every variable and positive leading coefficient).  ``den_const``
is always coprime to the numerator's content.  One rule says which factors
an operation tries against a numerator:

- a product tries every factor of each operand against the other
  operand's numerator, a key both operands carry included;
- no other operation tries a factor: not a sum, an integer or monomial
  multiple, a negation, or the ring maps ``shift`` and ``sub_a_squared``.

So a result can keep a factor that divides its numerator: one a sum
carries over, or a reducible binomial factor x^t -+ x^b (every U(A^n Q^2)
and quantum integer) whose pieces come one from each side of a product.
``Frac.reduced`` tries every factor against the whole numerator, so that
none divides it.  It runs where a fraction's form is read: on printing, and
as a retry before a vanishing denominator factor or a rejected membership
is reported; ``Frac.make`` and ``Frac.inv`` return it.  Equality is decided
by cross multiplication, so it never needs a reduced form.

Cyclotomic scalars live in Q[A] / Phi_{2p}(A) for odd p >= 3, so the class
of ``A`` is an exact primitive 2p-th root of unity (A^p = -1).  A scalar is
an integer vector over one positive integer denominator; Phi_{2p} is monic,
so reduction by it stays in the integers.  A field is built from p alone,
and a scalar carries its field.  ``power`` is the one square-and-multiply
loop: polynomials, fractions, scalars, torus elements and the residues of
``_remainder_mod_prime`` all use it.

Everything here is immutable after construction and all operations are
pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cache, lru_cache
from itertools import repeat
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence


class ContextMismatch(ValueError):
    """Operands live over different variable contexts."""


class InversionError(ZeroDivisionError):
    """Attempt to invert zero (polynomial or cyclotomic)."""


class ExponentOverflow(OverflowError):
    """An exponent left [EXP_MIN, EXP_MAX], the range a packed monomial key holds."""

    def __init__(self, name: str, exponent: int):
        super().__init__(f"exponent {exponent} of {name} is outside [{EXP_MIN}, {EXP_MAX}]")
        self.name = name


class SpecializationError(ZeroDivisionError):
    """A denominator factor vanished under a cyclotomic specialization."""

    def __init__(self, message: str, factor: "LPoly"):
        super().__init__(message)
        self.factor = factor


# ---------------------------------------------------------------------------
# variable contexts and packed monomial keys
# ---------------------------------------------------------------------------

SLOT_BITS = 32
_SLOT_MASK = (1 << SLOT_BITS) - 1
_BIAS = 1 << (SLOT_BITS - 1)
EXP_MIN = -(1 << (SLOT_BITS - 3))
EXP_MAX = (1 << (SLOT_BITS - 3)) - 1


class VarContext:
    """Fixed, ordered variable set: ``A`` then Q's (internal edges) then C's.

    ``q_slots`` gives, in internal-edge order, the slot of each Q variable;
    this is what exponent-shift substitution acts on.  The context owns the
    packing of exponent vectors into monomial keys: ``one`` is the key of
    the monomial 1, ``pack``/``unpack`` convert, and ``check`` verifies the
    keys an operation made.
    """

    __slots__ = ("names", "index", "q_slots", "nvars", "one", "_guard", "_guard_mask",
                 "_parity_mask", "_shifts")

    def __init__(self, names: Iterable[str], q_slots: Iterable[int] = ()):
        names = tuple(names)
        if not names or names[0] != "A":
            raise ValueError("variable context must start with 'A'")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.q_slots = tuple(q_slots)
        if 0 in self.q_slots:
            raise ValueError("slot 0 is A, not a Q variable")
        self.nvars = len(names)
        self._shifts = tuple(SLOT_BITS * i for i in range(self.nvars))
        self.one = sum(_BIAS << s for s in self._shifts)
        # a biased slot value e + 2^31 is in range iff its top three bits are
        # 100 or 011: in k ^ (k << 1), bit 31 of the slot is set and bit 30 clear
        self._guard = self.one
        self._guard_mask = sum(3 << (s + SLOT_BITS - 2) for s in self._shifts)
        # the bias is even, so the lowest bit of a slot is its exponent's parity
        self._parity_mask = sum(1 << s for s in self._shifts)

    def __eq__(self, other):
        return self is other or (isinstance(other, VarContext) and self.names == other.names)

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarContext({', '.join(self.names)})"

    def pack(self, exps: Sequence[int]) -> int:
        """The key of the monomial with exponent vector ``exps``."""
        key = 0
        for e, s in zip(exps, self._shifts):
            if not EXP_MIN <= e <= EXP_MAX:
                raise self._overflow(exps)
            key |= (e + _BIAS) << s
        return key

    def key_of(self, exps: Mapping[str, int]) -> int:
        """The key of the monomial given by variable name -> exponent."""
        key = self.one
        for name, k in exps.items():
            if not EXP_MIN <= k <= EXP_MAX:
                raise ExponentOverflow(name, k)
            key += k << self._shifts[self.index[name]]
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple(((key >> s) & _SLOT_MASK) - _BIAS for s in self._shifts)

    def parities(self, keys: Iterable[int]) -> set[tuple[int, ...]]:
        """The distinct exponent parity vectors (0 or 1 per variable) of the keys."""
        m, one = self._parity_mask, self.one
        return {self.unpack(c | one) for c in {k & m for k in keys}}

    def slot(self, key: int, i: int) -> int:
        """Exponent of variable ``i`` in the monomial ``key``."""
        return ((key >> (SLOT_BITS * i)) & _SLOT_MASK) - _BIAS

    def check(self, keys: Iterable[int]) -> None:
        """Raise ExponentOverflow unless every key has all its exponents in range.

        Valid for keys whose exponents lie in [-2^31, 2^31), so that no slot
        carried into the next, such as a sum of two valid keys minus ``one``.
        """
        g, mask = self._guard, self._guard_mask
        for k in keys:
            if (k ^ (k << 1)) & mask != g:
                raise self._overflow(self.unpack(k))

    def _overflow(self, exps: Sequence[int]) -> ExponentOverflow:
        return ExponentOverflow(*next((n, e) for n, e in zip(self.names, exps)
                                      if not EXP_MIN <= e <= EXP_MAX))


def power(base, n: int, one, mul=operator.mul):
    """base ** n for n >= 0 by square-and-multiply, ``one`` being the unit of
    the product ``mul``."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _check_ctx(a, b):
    if a.ctx != b.ctx:
        raise ContextMismatch(f"mixed contexts {a.ctx!r} and {b.ctx!r}")


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LPoly:
    """Multivariate Laurent polynomial with integer coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: dict[int, int]):
        self.ctx = ctx
        self.terms = terms  # monomial key -> coefficient; owned, never mutated

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "LPoly":
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx: VarContext, c: int) -> "LPoly":
        return cls(ctx, {ctx.one: c} if c else {})

    @classmethod
    def monomial(cls, ctx: VarContext, exps: Mapping[str, int], coeff: int = 1) -> "LPoly":
        if coeff == 0:
            return cls.zero(ctx)
        return cls(ctx, {ctx.key_of(exps): coeff})

    @classmethod
    def a_power(cls, ctx: VarContext, k: int, coeff: int = 1) -> "LPoly":
        return cls.monomial(ctx, {"A": k}, coeff)

    @classmethod
    def from_exps(cls, ctx: VarContext, terms: Mapping[tuple[int, ...], int]) -> "LPoly":
        """The polynomial with the given exponent tuple -> coefficient terms."""
        return cls(ctx, {ctx.pack(e): c for e, c in terms.items() if c})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LPoly) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx.names, self.key()))

    def key(self) -> tuple:
        """Canonical hashable form (sorted term list)."""
        return tuple(sorted(self.terms.items()))

    def exp_items(self) -> list[tuple[tuple[int, ...], int]]:
        """The terms as (exponent tuple, coefficient) pairs."""
        unpack = self.ctx.unpack
        return [(unpack(k), c) for k, c in self.terms.items()]

    def int_content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
            if g == 1:
                return 1
        return g

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.ctx.nvars
        return tuple(map(min, zip(*map(self.ctx.unpack, self.terms))))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LPoly") -> "LPoly":
        _check_ctx(self, other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LPoly(self.ctx, out)

    def __neg__(self) -> "LPoly":
        return LPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LPoly") -> "LPoly":
        return self + (-other)

    def __mul__(self, other: "LPoly") -> "LPoly":
        _check_ctx(self, other)
        a, b = self.terms, other.terms
        if not a or not b:
            return LPoly.zero(self.ctx)
        if len(a) > len(b):
            a, b = b, a
        one = self.ctx.one
        out: dict[int, int] = {}
        get = out.get
        b_items = b.items()
        for ka, ca in a.items():
            ka -= one
            for kb, cb in b_items:
                k = ka + kb
                s = get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
        self.ctx.check(out)
        return LPoly(self.ctx, out)

    def mul_int(self, c: int) -> "LPoly":
        if c == 0:
            return LPoly.zero(self.ctx)
        if c == 1:
            return self
        return LPoly(self.ctx, {e: c * v for e, v in self.terms.items()})

    def mul_monomial(self, key: int, coeff: int = 1) -> "LPoly":
        """coeff * x^e * self, the monomial x^e given by its key."""
        if coeff == 0:
            return LPoly.zero(self.ctx)
        d = key - self.ctx.one
        if not d:
            return self.mul_int(coeff)
        out = {k + d: coeff * c for k, c in self.terms.items()}
        self.ctx.check(out)
        return LPoly(self.ctx, out)

    def __pow__(self, n: int) -> "LPoly":
        if n < 0:
            raise ValueError("negative power of a general polynomial")
        return power(self, n, LPoly.const(self.ctx, 1))

    def shift(self, l: tuple[int, ...]) -> "LPoly":
        """Substitute Q_e -> A^{l_e} Q_e for every internal edge e."""
        steps = [(s, le) for le, s in zip(l, self.ctx.q_slots) if le]
        return self._a_added(steps) if steps else self

    def sub_a_squared(self) -> "LPoly":
        """Ring endomorphism A -> A^2 (used for mutation testing)."""
        return self._a_added(((0, 1),))

    def _a_added(self, steps: Iterable[tuple[int, int]]) -> "LPoly":
        """Add sum m * e_s over the pairs (slot s, m) to each term's exponent of A.

        The map sends distinct monomials to distinct monomials, so no two
        terms merge.  A is slot 0, so the new key is the old one plus the
        change.
        """
        ctx = self.ctx
        slot = ctx.slot
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            da = 0
            for s, m in steps:
                da += m * slot(k, s)
            if da:
                a = slot(k, 0) + da
                if not EXP_MIN <= a <= EXP_MAX:
                    raise ctx._overflow((a,))
                k += da
            out[k] = c
        return LPoly(ctx, out)

    # -- division ------------------------------------------------------------

    def exact_div(self, f: "LPoly") -> "LPoly | None":
        """Return self / f when the division is exact, else None.

        Both operands may be Laurent.  A binomial f = c_t x^t + c_b x^b with
        c_t, c_b = +-1 (the localizing factors U(A^n Q^2) are of this form)
        is divided over the cosets of Z w, w = t - b: on each coset the
        dividend is a Laurent polynomial sum_k a_k y^k in y = x^w, and
        f = c_t x^b (y - s) with s = -c_t c_b.  The remainder of dividing by
        (y - s) is zero iff sum_k a_k s^k = 0, so one pass over the terms
        decides exactness; only an exact division then builds its quotient,
        coset by coset, by top-down synthetic division.  Every other nonzero
        f (one term, three or more terms, or a coefficient other than +-1)
        goes through grlex long division over the integers, which walks the
        dividend's whole exponent span.  It first gets a cheaper inexactness
        test (``_remainder_mod_prime``), so an inexact division by most such
        f returns None without the walk.
        """
        _check_ctx(self, f)
        if f.is_zero():
            raise InversionError("division by zero polynomial")
        if self.is_zero():
            return self
        if len(f.terms) == 2 and all(c in (1, -1) for c in f.terms.values()):
            return _div_binomial(self, f)
        if _remainder_mod_prime(self, f):
            return None
        return _div_long(self, f)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ctx.names
        parts = []
        for e, c in sorted(self.exp_items(), key=lambda ec: _grlex_key(ec[0]), reverse=True):
            factors = [f"({c})"]
            for i, k in enumerate(e):
                if k == 0:
                    continue
                factors.append(names[i] if k == 1 else f"{names[i]}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        s = str(self)
        return f"LPoly({s if len(s) < 60 else s[:57] + '...'})"


def _div_long(p: LPoly, f: LPoly) -> LPoly | None:
    """p / f by grlex long division, or None if inexact.

    Runs on exponent tuples, unpacked from the keys and packed again for the
    quotient.  Monomial content is cleared first and restored on the
    quotient.  Works over the integers: exactness implies every intermediate
    leading coefficient divides.  It always ends, since grlex well-orders
    the non-negative exponents and a negative quotient exponent returns
    None.  This is the general path and the reference the binomial path is
    tested against.
    """
    mp = p.min_exponents()
    mf = f.min_exponents()
    f0 = {tuple(x - y for x, y in zip(e, mf)): c for e, c in f.exp_items()}
    lf = max(f0, key=_grlex_key)
    cf = f0[lf]
    quot: dict[tuple[int, ...], int] = {}
    rem = {tuple(x - y for x, y in zip(e, mp)): c for e, c in p.exp_items()}
    while rem:
        lr = max(rem, key=_grlex_key)
        cr = rem[lr]
        qe = tuple(x - y for x, y in zip(lr, lf))
        if any(v < 0 for v in qe):
            return None
        if cr % cf:
            return None
        qc = cr // cf
        quot[qe] = qc
        for e, c in f0.items():
            t = tuple(x + y for x, y in zip(qe, e))
            s = rem.get(t, 0) - qc * c
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    off = tuple(x - y for x, y in zip(mp, mf))
    return LPoly.from_exps(p.ctx, {tuple(x + y for x, y in zip(e, off)): c
                                   for e, c in quot.items()})


_P = 2 ** 61 - 1  # the prime P of _remainder_mod_prime


def _remainder_mod_prime(p: LPoly, f: LPoly) -> bool:
    """True when a ring map to polynomials over GF(P) shows that f does not
    divide p.

    The map keeps the variable v of f's largest degree and the variables f
    does not use, and sends each other variable x_j of f to the fixed
    nonzero residue r_j mod P = 2^61 - 1.  It takes f to a unit times h(v)
    with a nonzero constant term.  Then p maps to sum_m x^m g_m(v) over the
    distinct exponents m of the kept variables other than v, and f | p
    implies h | g_m for every m: a nonzero remainder g_m mod h proves the
    division inexact.  v^n mod h is formed by square-and-multiply, so the
    cost grows with log n, not with n.  A divisor that maps to a monomial
    returns False.
    """
    mf = f.min_exponents()
    f_items = f.exp_items()
    spans = [max(e[j] for e, _c in f_items) - m for j, m in enumerate(mf)]
    i = max(range(len(spans)), key=spans.__getitem__)
    # r_j = (j + 1) c mod P for a fixed c, nonzero as j + 1 < P
    residues = {j: (j + 1) * 0x9E3779B97F4A7C15 % _P
                for j, span in enumerate(spans) if span and j != i}

    def image(e: tuple[int, ...], c: int) -> int:
        """c times r_j^(e_j) over the variables j sent to residues, mod P."""
        for j, r in residues.items():
            c = c * pow(r, e[j], _P) % _P
        return c

    h: dict[int, int] = {}
    for e, c in f_items:
        h[e[i]] = (h.get(e[i], 0) + image(e, c)) % _P
    degs = [d for d, c in h.items() if c]
    if len(degs) < 2:
        return False
    lo = min(degs)
    deg = max(degs) - lo
    # h / lead = v^deg + sum_j low[j] v^j over GF(P)
    lead_inv = pow(h[lo + deg], -1, _P)
    low = [h.get(lo + j, 0) * lead_inv % _P for j in range(deg)]

    def mul_mod(a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (2 * deg - 1)
        for j, x in enumerate(a):
            if x:
                for k, y in enumerate(b, j):
                    prod[k] += x * y
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k] % _P
            if c:
                for j, y in enumerate(low, k - deg):
                    prod[j] -= c * y
        return [c % _P for c in prod[:deg]]

    v = [-low[0] % _P] if deg == 1 else [0, 1] + [0] * (deg - 2)
    unit = [1] + [0] * (deg - 1)

    items = p.exp_items()
    low_exp = min(e[i] for e, _c in items)
    powers: dict[int, list[int]] = {}
    remainders: dict[tuple[int, ...], list[int]] = {}
    kept = [j for j in range(len(mf)) if j != i and j not in residues]
    for e, c in items:
        n = e[i] - low_exp
        r = remainders.setdefault(tuple(e[j] for j in kept), [0] * deg)
        c = image(e, c)
        if n < deg:
            r[n] += c
            continue
        vn = powers.get(n)
        if vn is None:
            vn = powers[n] = power(v, n, unit, mul_mod)
        for j, x in enumerate(vn):
            r[j] += c * x
    return any(x % _P for r in remainders.values() for x in r)


def _div_binomial(p: LPoly, f: LPoly) -> LPoly | None:
    """p / f for f = c_t x^t + c_b x^b with c_t, c_b = +-1, or None if inexact.

    See ``LPoly.exact_div``.  The coset of an exponent e is keyed by the key
    of rep = e - k w with k = floor(e_i / w_i), i the slot of largest |w_i|,
    so the dividend's term x^e is a_k y^k on the coset of rep.  The key of
    rep is key(e) - k (key(t) - key(b)).  With |e_j| <= 2^29 and
    |w_j| <= |w_i| < 2^30, |k w_j| <= |k w_i| < 2^29 + 2^30, so every rep
    exponent lies in (-2^31, 2^31): rep keys carry nothing between slots,
    and equal rep keys are equal reps.
    """
    ctx = p.ctx
    plan = _binomial_plan(f)
    shifts = _coset_shifts(p, plan)
    if shifts is None:
        return None
    sh, wi, step, s, kb, ct = plan
    coeffs_by_coset: dict[int, dict[int, int]] = {}
    for e, c in p.terms.items():
        k = (((e >> sh) & _SLOT_MASK) - _BIAS) // wi
        rep = e - shifts[k]
        coeffs = coeffs_by_coset.get(rep)
        if coeffs is None:
            coeffs_by_coset[rep] = {k: c}
        else:
            coeffs[k] = c
    quot: dict[int, int] = {}
    base_shift = ctx.one - kb
    for rep, coeffs in coeffs_by_coset.items():
        # quotient coefficients q_k of y^k, k = max - 1 .. min, from the top
        # down by q_{k-1} = a_k + s q_k; y^(k-1) on the coset is x^(rep - b + (k-1) w)
        base = rep + base_shift
        q = 0
        for k in range(max(coeffs), min(coeffs), -1):
            q = coeffs.get(k, 0) + s * q
            if q:
                quot[base + (k - 1) * step] = ct * q
    ctx.check(quot)
    return LPoly(ctx, quot)


@lru_cache(maxsize=4096)
def _binomial_plan(f: LPoly) -> tuple[int, int, int, int, int, int]:
    """(bit shift of slot i, w_i, key(t) - key(b), s, key(b), c_t) for a
    binomial f as in ``_div_binomial``; kept, as the same factors are tried
    again and again."""
    ctx = f.ctx
    (kt, ct), (kb, cb) = f.terms.items()
    w = [x - y for x, y in zip(ctx.unpack(kt), ctx.unpack(kb))]
    i = max(range(len(w)), key=lambda j: abs(w[j]))
    return SLOT_BITS * i, w[i], kt - kb, -ct * cb, kb, ct


def _coset_shifts(p: LPoly, plan: tuple) -> dict[int, int] | None:
    """Does the binomial with this ``_binomial_plan`` divide p?  The first
    pass of ``_div_binomial``: None when some coset's signed coefficient sum
    is nonzero, else the key difference k * step of each k met."""
    sh, wi, step, s, _kb, _ct = plan
    shifts: dict[int, int] = {}
    # most calls fail here, so this pass keeps one integer per coset
    sums: dict[int, int] = {}
    for e, c in p.terms.items():
        k = (((e >> sh) & _SLOT_MASK) - _BIAS) // wi  # ctx.slot(e, i) // wi, inlined
        kw = shifts.get(k)
        if kw is None:
            kw = shifts[k] = k * step
        rep = e - kw
        sums[rep] = sums.get(rep, 0) + (-c if s < 0 and k & 1 else c)
    if any(sums.values()):
        return None
    return shifts


def u_poly(ctx: VarContext, exps: Mapping[str, int], a_shift: int = 0) -> LPoly:
    """U(A^a * M) = A^a M - A^-a M^-1 for the monomial M given by exps."""
    k = ctx.key_of(exps) + ctx.key_of({"A": a_shift}) - ctx.one
    if k == ctx.one:
        return LPoly.zero(ctx)
    inverse = 2 * ctx.one - k
    ctx.check((k, inverse))
    return LPoly(ctx, {k: 1, inverse: -1})


def quantum_int(ctx: VarContext, n: int) -> LPoly:
    """{n} = A^{2n} - A^{-2n}."""
    return u_poly(ctx, {}, 2 * n)


def _canonical_factor(p: LPoly) -> tuple[LPoly, int, tuple[int, ...], int]:
    """Split p = sign * content * monomial * canon.

    Returns (canon, sign, monomial_exponent, content) with canon primitive,
    zero minimal exponents and positive leading coefficient.
    """
    ctx = p.ctx
    mins = p.min_exponents()
    g = p.int_content()
    # grlex is invariant under translation, so p and canon share their lead
    sign = -1 if max(p.exp_items(), key=lambda ec: _grlex_key(ec[0]))[1] < 0 else 1
    d = ctx.one - ctx.pack(mins)
    cleared = {k + d: c // (sign * g) for k, c in p.terms.items()}
    ctx.check(cleared)
    return LPoly(ctx, cleared), sign, mins, g


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------

class Frac:
    """Quotient of Laurent polynomials in cross-multiplication semantics.

    ``den_const`` is a positive integer; ``factors`` maps a canonical key to
    (factor polynomial, multiplicity).  The mathematical denominator is
    ``den_const * prod(f^m)``.
    """

    __slots__ = ("ctx", "num", "den_const", "factors")

    def __init__(self, ctx, num, den_const=1, factors=None):
        self.ctx = ctx
        self.num = num
        self.den_const = den_const
        self.factors = factors if factors is not None else {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_poly(cls, p: LPoly) -> "Frac":
        return cls(p.ctx, p)

    @classmethod
    def from_int(cls, ctx: VarContext, c: int) -> "Frac":
        return cls(ctx, LPoly.const(ctx, c))

    @classmethod
    def make(cls, num: LPoly, den_polys: Iterable[LPoly] = ()) -> "Frac":
        return cls(num.ctx, num)._joined((f, 1) for f in den_polys).reduced()

    # -- structure ----------------------------------------------------------

    def den(self) -> LPoly:
        """Expanded denominator."""
        d = LPoly.const(self.ctx, self.den_const)
        for f, m in self.factors.values():
            for _ in range(m):
                d = d * f
        return d

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def _joined(self, pairs: Iterable[tuple[LPoly, int]]) -> "Frac":
        """This fraction over f^m for each pair (f, m), m >= 1, not reduced.

        The one place where a polynomial joins the denominator.  Each f is
        sign * content * monomial * canon: the sign and the monomial go into
        the numerator, the content into ``den_const``, and m onto canon's
        multiplicity (a factor already present keeps its place)."""
        ctx = self.ctx
        num, dc, fac = self.num, self.den_const, dict(self.factors)
        for f, m in pairs:
            if f.is_zero():
                raise InversionError("division by zero polynomial")
            canon, sign, mono, content = _canonical_factor(f)
            num = num.mul_monomial(ctx.pack([-m * v for v in mono]), sign ** m)
            dc *= content ** m
            k = canon.key()
            fac[k] = (fac[k][0], fac[k][1] + m) if k in fac else (canon, m)
        return Frac(ctx, num, dc, fac)

    # -- normalization -------------------------------------------------------

    def reduced(self) -> "Frac":
        """This fraction with every factor tried against the whole numerator,
        so that none divides it.  A sum, or a product whose reducible factor
        takes a piece from each numerator, can leave a factor over a
        numerator it divides; printing, evaluation and membership read this
        form."""
        num, fac = _cancel(self.num, self.factors)
        return Frac(self.ctx, num, self.den_const, fac)._const_reduced()

    def _const_reduced(self) -> "Frac":
        """This fraction with the gcd of ``den_const`` and the numerator's
        content divided out; zero as 0/1."""
        num, dc = self.num, self.den_const
        if num.is_zero():
            return Frac(self.ctx, num)
        g = gcd(num.int_content(), dc) if dc > 1 else 1
        if g == 1:
            return self
        return Frac(self.ctx, LPoly(self.ctx, {e: c // g for e, c in num.terms.items()}),
                    dc // g, self.factors)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Frac") -> "Frac":
        _check_ctx(self, other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        lc, fac, my_extra, ot_extra = _den_lcm(self, other)
        num = self.num * my_extra + other.num * ot_extra
        return Frac(self.ctx, num, lc, fac)._const_reduced()

    def __neg__(self) -> "Frac":
        return Frac(self.ctx, -self.num, self.den_const, self.factors)

    def __sub__(self, other: "Frac") -> "Frac":
        return self + (-other)

    def __mul__(self, other: "Frac") -> "Frac":
        _check_ctx(self, other)
        if self.is_zero() or other.is_zero():
            return Frac(self.ctx, LPoly.zero(self.ctx))
        # each operand's factors are tried against the other's numerator
        num_a, theirs = _cancel(self.num, other.factors)
        num_b, fac = _cancel(other.num, self.factors)
        for k, (f, m) in theirs.items():
            fac[k] = (f, fac.get(k, (f, 0))[1] + m)
        return Frac(self.ctx, num_a * num_b, self.den_const * other.den_const,
                    fac)._const_reduced()

    def mul_monomial(self, exps: Mapping[str, int], coeff: int = 1) -> "Frac":
        return Frac(self.ctx, self.num.mul_monomial(self.ctx.key_of(exps), coeff),
                    self.den_const, self.factors)

    def mul_int(self, c: int) -> "Frac":
        if c == 0:
            return Frac(self.ctx, LPoly.zero(self.ctx))
        # a primitive factor divides c * num only if it divides num (Gauss)
        return Frac(self.ctx, self.num.mul_int(c), self.den_const, self.factors)._const_reduced()

    def inv(self) -> "Frac":
        if self.is_zero():
            raise InversionError("inversion of zero fraction")
        return Frac(self.ctx, self.den())._joined([(self.num, 1)]).reduced()

    def __truediv__(self, other: "Frac") -> "Frac":
        return self * other.inv()

    def __pow__(self, n: int) -> "Frac":
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, Frac.from_int(self.ctx, 1))

    def shift(self, l: tuple[int, ...]) -> "Frac":
        """Substitute Q_e -> A^{l_e} Q_e throughout (C and A untouched).

        A ring automorphism, so nothing new cancels."""
        if not any(l):
            return self
        return self._mapped(operator.methodcaller("shift", l))

    def sub_a_squared(self) -> "Frac":
        """Substitute A -> A^2 (the mutation of the identity suites).

        The map is injective and f(A^2) | n(A^2) implies f | n (the quotient
        is even in A, so it is some r(A^2), and n = f r): nothing new cancels."""
        return self._mapped(LPoly.sub_a_squared)

    def _mapped(self, ring_map: Callable[[LPoly], LPoly]) -> "Frac":
        """The image under a ring map of the polynomials under which no
        factor divides the image of a numerator it did not divide."""
        return Frac(self.ctx, ring_map(self.num), self.den_const)._joined(
            (ring_map(f), m) for f, m in self.factors.values())

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Frac):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        # cross multiplication over the lcm of the two denominators
        _lc, _fac, a_extra, b_extra = _den_lcm(self, other)
        return self.num * a_extra == other.num * b_extra

    def __hash__(self):  # pragma: no cover - fractions are not dict keys
        raise TypeError("Frac is unhashable (equality is cross-multiplication)")

    def __str__(self):
        r = self.reduced()
        d = r.den()
        if d.terms == {self.ctx.one: 1}:
            return str(r.num)
        return f"{r.num} / {d}"

    def __repr__(self):
        s = str(self)
        return f"Frac({s if len(s) < 80 else s[:77] + '...'})"


def _cancel(num: LPoly, factors: dict) -> tuple[LPoly, dict]:
    """Divide ``num`` by each factor, up to its multiplicity, while the
    division is exact.  Returns the quotient and the factors left over with
    their remaining multiplicities, in their given order."""
    left = {}
    for k, (f, m) in factors.items():
        while m and num:
            q = num.exact_div(f)
            if q is None:
                break
            num = q
            m -= 1
        if m:
            left[k] = (f, m)
    return num, left


def _den_lcm(a: Frac, b: Frac) -> tuple[int, dict, LPoly, LPoly]:
    """The lcm of two factored denominators and the multipliers that take each to it.

    Returns (constant, factors, a_extra, b_extra): the lcm is the constant
    times each factor to the larger of its two multiplicities, and
    a_extra * den(a) = b_extra * den(b) = lcm.  The factors keep their order
    of appearance, a's first, so the order in which ``reduced`` later tries
    a sum's factors does not depend on hash values.
    """
    lc = lcm(a.den_const, b.den_const)
    a_extra = LPoly.const(a.ctx, lc // a.den_const)
    b_extra = LPoly.const(a.ctx, lc // b.den_const)
    fac = {}
    for k in {**a.factors, **b.factors}:
        fa, ma = a.factors.get(k, (None, 0))
        fb, mb = b.factors.get(k, (None, 0))
        f = fa if fa is not None else fb
        m = max(ma, mb)
        fac[k] = (f, m)
        for _ in range(m - ma):
            a_extra = a_extra * f
        for _ in range(m - mb):
            b_extra = b_extra * f
    return lc, fac, a_extra, b_extra


# ---------------------------------------------------------------------------
# cyclotomic field Q(xi), xi a primitive 2p-th root of unity
# ---------------------------------------------------------------------------

def _div_monic(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b in Z[x] for monic b; coefficient lists, low degree first."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + db]
        if c:
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    assert not any(a), "inexact division by a monic polynomial"
    return q


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of Phi_n, low degree first: x^n - 1 divided by each Phi_d, d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _div_monic(poly, cyclotomic_polynomial(d))
    return poly


def _add_rows(out: list[int], coeffs, rows) -> list[int]:
    """out += sum_i coeffs[i] * rows[i] for integer vectors, in place; returns out."""
    for c, row in zip(coeffs, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return out


def _accumulate(slots: list, i: int, column) -> None:
    """slots[i] += column, where a zero slot (None) takes the column itself."""
    slots[i] = list(column) if slots[i] is None else list(map(operator.add, slots[i], column))


class CycloField:
    """Q[A] / Phi_{2p}(A) with integer reduction rows, powers of A and Galois maps."""

    def __init__(self, p: int):
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd natural >= 3")
        self.p = p
        self.modulus = cyclotomic_polynomial(2 * p)
        self.deg = deg = len(self.modulus) - 1  # Euler phi(2p)
        # x^(deg+i) mod Phi for i in range(deg - 1) (products have degree <= 2*deg-2);
        # Phi is monic, so the rows are integral
        cur = [-c for c in self.modulus[:-1]]
        red = [tuple(cur)]
        for _ in range(deg - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [c + top * r for c, r in zip(cur, red[0])]
            red.append(tuple(cur))
        self._red = red
        self.zero = Cyclo(self, (0,) * deg, 1)
        self.one = self.from_rational(1)
        # A^k for k = 0 .. 2p-1 (A has multiplicative order exactly 2p)
        pows = [self.one]
        gen = Cyclo(self, tuple(int(i == 1) for i in range(deg)), 1)
        for _ in range(2 * p - 1):
            pows.append(pows[-1] * gen)
        self.a_pows = pows
        # (-A)^k = (-1)^k A^k; (-A) has order p since A^p = -1
        self.minus_a_pows = [-pows[k] if k % 2 else pows[k] for k in range(p)]
        # the automorphism A -> A^k for each unit k mod 2p other than 1,
        # as the integer rows A^(i k), i < deg
        self._galois = [tuple(pows[i * k % (2 * p)].num for i in range(deg))
                        for k in range(3, 2 * p, 2) if gcd(k, p) == 1]

    def from_rational(self, r) -> "Cyclo":
        r = Fraction(r)
        return Cyclo(self, (r.numerator,) + (0,) * (self.deg - 1), r.denominator)

    def from_coeffs(self, coeffs: Iterable) -> "Cyclo":
        """sum_i coeffs[i] A^i for at most deg rational coefficients."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.deg:
            raise ValueError("coefficient vector longer than field degree")
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return self._canonical(num + [0] * (self.deg - len(num)), den)

    def a_power(self, k: int) -> "Cyclo":
        return self.a_pows[k % (2 * self.p)]

    def minus_a_power(self, k: int) -> "Cyclo":
        return self.minus_a_pows[k % self.p]

    def _canonical(self, num, den: int) -> "Cyclo":
        """num / den for a positive den, with the common gcd divided out."""
        g = gcd(den, *num) if den != 1 else 1
        if g == 1:
            return Cyclo(self, tuple(num), den)
        return Cyclo(self, tuple(c // g for c in num), den // g)

    def _reduce(self, prod: list[int]) -> list[int]:
        """An integer vector of length 2*deg-1 reduced mod Phi (still integral)."""
        return _add_rows(prod[:self.deg], prod[self.deg:], self._red)

    def _mul_int(self, a, b) -> list[int]:
        """Product of two integer vectors, reduced mod Phi (still integral)."""
        prod = [0] * (2 * self.deg - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    prod[j] += ca * cb
        return self._reduce(prod)

    def sum(self, values: Iterable["Cyclo"]) -> "Cyclo":
        """The sum of the values: their numerators are added over one common
        denominator, with one gcd pass for the result."""
        acc = [0] * self.deg
        den = 1
        for v in values:
            d = v.den
            if den % d:
                scale = d // gcd(den, d)
                acc = [c * scale for c in acc]
                den *= scale
            m = den // d
            if m == 1:
                acc = [c + x for c, x in zip(acc, v.num)]
            else:
                acc = [c + m * x for c, x in zip(acc, v.num)]
        return self._canonical(acc, den)

    # Integer columns: n values over one denominator den as deg lists of
    # length n, column i holding coefficient i of every value's numerator
    # scaled to den, None for a zero column.  Products of such columns are
    # C-level map loops over the values at once.

    def columns(self, values: Sequence["Cyclo"], den: int) -> list[list[int] | None]:
        """The integer columns of the values over ``den``, a multiple of each
        value's denominator."""
        rows = [v.num if v.den == den else [c * (den // v.den) for c in v.num] for v in values]
        return [list(col) if any(col) else None for col in zip(*rows)]

    def from_columns(self, cols, den: int, n: int) -> list["Cyclo"]:
        """The n values of integer columns over ``den``, each made canonical once."""
        zero = [0] * n
        return [self._canonical(v, den) for v in zip(*(col or zero for col in cols))]

    def mul_columns(self, acc: list, a, b) -> None:
        """acc += a * b for the columns a and b, unreduced: ``acc`` has 2*deg-1
        slots (None for zero) and is reduced by ``reduce_columns``, once."""
        for i, ac in enumerate(a):
            if ac:
                for ij, bc in enumerate(b, i):
                    if bc:
                        _accumulate(acc, ij, map(operator.mul, ac, bc))

    def reduce_columns(self, acc: list) -> list[list[int] | None]:
        """The deg columns of an accumulation reduced mod Phi with the
        reduction rows, zero columns as None."""
        out = acc[:self.deg]
        for row, col in zip(self._red, acc[self.deg:]):
            if col:
                for i, c in enumerate(row):
                    if c:
                        _accumulate(out, i, map(operator.mul, col, repeat(c)))
        return [col if col and any(col) else None for col in out]

    def products_equal(self, a: "Cyclo", b: "Cyclo", c: "Cyclo", d: "Cyclo") -> bool:
        """a * b == c * d, on the integer numerators cross-multiplied by the
        other side's denominators, with no gcd pass."""
        ls, rs = c.den * d.den, a.den * b.den
        return all(x * ls == y * rs
                   for x, y in zip(self._mul_int(a.num, b.num), self._mul_int(c.num, d.num)))

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.p == self.p

    def __hash__(self):
        return hash(("CycloField", self.p))

    def __repr__(self):
        return f"CycloField(p={self.p})"


class Cyclo:
    """Element num/den of Q[A]/Phi_{2p}(A).

    ``num`` is an integer vector of length phi(2p) and ``den`` a positive
    integer, kept canonical: gcd(den, *num) = 1, and zero is (0, ..., 0)/1.
    Each value then has one (num, den), so == and hash compare values.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, A, ..., A^(deg-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        return (isinstance(other, Cyclo) and self.field == other.field
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.field.p, self.num, self.den))

    def __add__(self, other: "Cyclo") -> "Cyclo":
        return self.field.sum((self, other))

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + -other

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        field = self.field
        return field._canonical(field._mul_int(self.num, other.num), self.den * other.den)

    def inv(self) -> "Cyclo":
        """1/a = (product of the other Galois conjugates of a) / norm(a)."""
        if self.is_zero():
            raise InversionError("inversion of zero cyclotomic")
        field = self.field
        conj = None
        for rows in field._galois:
            c = _add_rows([0] * field.deg, self.num, rows)
            conj = c if conj is None else field._mul_int(conj, c)
        # num * conj is the norm of num: a product of |sigma(num)|^2 over pairs
        # of complex embeddings (no embedding is real), so a positive integer
        norm = field._mul_int(self.num, conj)[0]
        return field._canonical([c * self.den for c in conj], norm)

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        return self * other.inv()

    def __pow__(self, n: int) -> "Cyclo":
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, self.field.one)

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Cyclo(p={self.field.p}, {self})"


# one factor of a scalar literal: a rational number, or a power of A or -A;
# ASCII only, as the expression tokenizer is
_SCALAR_PIECE = re.compile(r"\s*(?:(?P<rat>[-+]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+))"
                           r"|(?P<base>A|-A|\(-A\))(?:\s*\^\s*(?P<k>[-+]?[0-9]+))?)\s*",
                           re.ASCII)


def parse_cyclo_scalar(field: CycloField, text: str) -> Cyclo:
    """Parse a scalar literal.  The accepted forms are
    - a rational number: an integer '3', a fraction '-5/7' or a decimal '1.25';
    - a product of rational numbers and powers 'A^k', '-A^k' and '(-A)^k'
      (the last two both mean (-A)^k), joined by '*': '2*(-A)^4', 'A^3';
    - a coefficient vector '[c0,c1,...]' of rational numbers, for
      sum_i c_i A^i.
    Anything else raises ValueError('bad cyclotomic literal ...'), exponent
    notation ('1e3', or '1e+300' as a JSON float prints) with a reason:
    '1e3000' would be read as a 3,001-digit integer.  A zero denominator
    raises ZeroDivisionError."""
    if re.search(r"[0-9.][eE]", text):
        raise ValueError(f"bad cyclotomic literal {text!r}: exponent notation is not accepted")
    vector = re.fullmatch(r"\s*\[(.*)\]\s*", text, re.ASCII | re.DOTALL)
    pieces = [_SCALAR_PIECE.fullmatch(s)
              for s in (vector[1].split(",") if vector else text.split("*"))]
    if not all(pieces) or (vector and any(m["base"] for m in pieces)):
        raise ValueError(f"bad cyclotomic literal {text!r}")
    if vector:
        return field.from_coeffs(m["rat"] for m in pieces)
    value = field.one
    for m in pieces:
        if m["rat"]:
            value = value * field.from_rational(Fraction(m["rat"]))
        else:
            base = field.a_power(1) if m["base"] == "A" else field.minus_a_power(1)
            value = value * base ** int(m["k"] or 1)
    return value


def term_values(poly: LPoly, field: CycloField,
                assign: Mapping[str, Cyclo]) -> Iterable[tuple[tuple[int, ...], Cyclo]]:
    """Each term of ``poly`` as (exponent, coeff * A^e0 * prod_i assign[name_i]^e_i).

    Only the variables a term uses are looked up in ``assign``; each power
    is computed once per call.
    """
    names = poly.ctx.names
    powers: dict[tuple[int, int], Cyclo] = {}
    for e, c in poly.exp_items():
        v = field.from_rational(c) * field.a_power(e[0])
        for i in range(1, len(e)):
            if e[i]:
                key = (i, e[i])
                pw = powers.get(key)
                if pw is None:
                    pw = powers[key] = assign[names[i]] ** e[i]
                v = v * pw
        yield e, v


def eval_frac(fr: Frac, field: CycloField, eval_poly: Callable, lift: Callable,
              scale: Cyclo) -> tuple[tuple[int, ...], list[Cyclo]]:
    """``scale`` times a fraction on the tensor factors it touches, as (edges,
    values): their increasing positions, one value per basis tuple of them.
    ``eval_poly`` gives a polynomial's values so; ``lift(edges, onto)`` indexes
    each tuple of the factors ``onto`` restricted to ``edges``.  Denominator
    factors are multiplied on the union of their factors, each distinct value
    inverted once and multiplied by ``scale``, and the numerator comes last.  A
    factor vanishing at any tuple raises SpecializationError, unless it
    cancels in the reduced fraction, which is then evaluated."""

    def joined(a, b, op):
        edges = tuple(sorted({*a[0], *b[0]}))
        return edges, [op(a[1][i], b[1][j]) for i, j in zip(lift(a[0], edges), lift(b[0], edges))]

    num, den = eval_poly(fr.num), ((), [field.from_rational(fr.den_const)])
    for key, (f, m) in fr.factors.items():
        edges, vals = eval_poly(f)
        if any(v.is_zero() for v in vals):
            reduced = fr.reduced()
            if key in reduced.factors:
                raise SpecializationError(f"denominator factor vanished: {f}", f)
            return eval_frac(reduced, field, eval_poly, lift, scale)
        den = joined(den, (edges, [v ** m for v in vals] if m > 1 else vals), operator.mul)
    inv = cache(Cyclo.inv)
    return joined(num, (den[0], [scale * inv(d) for d in den[1]]), lambda v, s: v * s if v else v)


def specialize_cyclotomic(a: Frac, field: CycloField, assign: Mapping[str, Cyclo]) -> Cyclo:
    """Image of a fraction under A -> class of A mod Phi_{2p}, vars -> scalars:
    ``eval_frac`` on no tensor factors, whose one basis tuple is ()."""

    def eval_poly(poly: LPoly) -> tuple[tuple[int, ...], list[Cyclo]]:
        return (), [field.sum(v for _e, v in term_values(poly, field, assign))]

    return eval_frac(a, field, eval_poly, lambda _edges, _onto: [0], field.one)[1][0]
