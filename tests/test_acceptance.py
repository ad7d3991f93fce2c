"""Acceptance criteria: every check is an exact (zero tolerance) equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its wall time against the stated budget.
"""

import random
import time
from dataclasses import replace

import pytest

from skeintorus import (
    QTElem, LPoly, Frac, u_poly, run_identity_suite, expand_support_check,
    fracdehn_check, build_rep, verify_cshadow, irreducibility_commutant,
    find_intertwiner, gauge_shift, shadow_scalar, CycloField,
)


def _report(criterion: str, detail: str, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    print(f"[{criterion}] PASS {detail} in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"{criterion} exceeded its {budget}s budget"


def test_criterion_1_quantum_torus_axioms(g2c, g2b):
    t0 = time.monotonic()
    rng = random.Random(101)
    n_triples = 0
    for g in (g2c, g2b):
        for e in g.internal_edges:
            Q = QTElem.scalar(g, Frac.from_poly(LPoly.monomial(g.ctx, {g.var_of_edge(e): 1})))
            E = QTElem.e_monomial(g, {e: 1})
            assert Q * E == (E * Q).mul_a_power(1)

        def rand_elem():
            out = QTElem.zero(g)
            for _ in range(rng.randrange(1, 3)):
                exps = {e: rng.randrange(-2, 3) for e in rng.sample(g.internal_edges, 2)}
                num = LPoly.monomial(
                    g.ctx, {"A": rng.randrange(-2, 3),
                            g.var_of_edge(rng.choice(g.internal_edges)): rng.randrange(-2, 3)},
                    rng.randrange(-3, 4) or 1)
                dens = [u_poly(g.ctx, {g.var_of_edge(g.internal_edges[0]): 2}, 2)] \
                    if rng.random() < 0.25 else []
                out = out + QTElem.e_monomial(g, exps, Frac.make(num, dens))
            return out

        one = QTElem.one(g)
        for _ in range(100):
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert (x * y) * z == x * (y * z)
            assert x * one == x and one * x == x
            n_triples += 1
    _report("criterion 1", f"torus axioms ({n_triples} triples, both genus-2 graphs)", t0, 10)


def test_criterion_2_one_cycle_suites(g1b, t1b, g2c, t2c):
    t0 = time.monotonic()
    for g, t in ((g1b, t1b), (g2c, t2c)):
        for s in ("S1", "S2", "S3"):
            rep = run_identity_suite(s, g, table=t)
            assert rep.all_pass, (s, g)
    _report("criterion 2", "S1-S3 at genus 1 (boundary) and genus 2 (closed)", t0, 10)


def test_criterion_3_two_cycle_suites(g2b, t2b):
    t0 = time.monotonic()
    for s in ("S4", "S5"):
        rep = run_identity_suite(s, g2b, table=t2b)
        assert rep.all_pass, s
    _report("criterion 3", "S4-S5 two-cycle lifts and X products at genus 2 (boundary)", t0, 60)


def test_criterion_4_separating_suites(g2c, t2c):
    t0 = time.monotonic()
    for s in ("S6", "S7", "S8"):
        rep = run_identity_suite(s, g2c, table=t2c)
        assert rep.all_pass, s
    _report("criterion 4", "S6-S8 separating lifts, closed-form product, reductions", t0, 120)


def test_criterion_5_commutator_families(g2c, t2c, g3c, t3c):
    t0 = time.monotonic()
    rep = run_identity_suite("S9", g2c, table=t2c)
    assert rep.all_pass
    rep = run_identity_suite("S10", g3c, table=t3c)
    assert rep.all_pass
    n10 = len(rep.identities)
    _report("criterion 5", f"S9 (genus 2) and S10 (genus 3, {n10} identities)", t0, 600)


def test_criterion_6_support_and_twist_scaling(g1b, t1b, g2c, t2c, g2b, t2b):
    t0 = time.monotonic()
    n_curves = 0
    for g, t in ((g1b, t1b), (g2c, t2c), (g2b, t2b)):
        rep = expand_support_check(t)
        assert rep.all_pass
        n_curves += len(t.catalogue)
        for name, curve in t.catalogue.items():
            if curve.kind in ("one_cycle", "two_cycle"):
                assert fracdehn_check(curve, t).all_pass, name
    _report("criterion 6", f"support/parity/extremal + twist scaling ({n_curves} curves)", t0, 10)


@pytest.fixture(scope="module")
def field3():
    return CycloField(3)


@pytest.fixture(scope="module")
def rep_closed(g2c):
    return build_rep(g2c, 3, {"a0": 2, "a1": 5, "c1": 3})


@pytest.fixture(scope="module")
def rep_boundary(g2b):
    return build_rep(g2b, 3, {"a0": 2, "a1": 5, "b1": 7, "c1": 3},
                     y={"a0": 2, "a1": 3, "b1": 5, "c1": 4}, boundary=11)


def test_criterion_7_representations(g2c, t2c, rep_closed, g2b, t2b, rep_boundary):
    t0 = time.monotonic()
    assert rep_closed.dim == 27
    assert rep_boundary.dim == 81
    for t, rep in ((t2c, rep_closed), (t2b, rep_boundary)):
        for name in sorted(t.catalogue):
            shadow_scalar(t.catalogue[name], rep, t)  # raises unless exact scalar
        assert verify_cshadow(rep, t).all_pass
        assert irreducibility_commutant(rep, t) == 1
    _report("criterion 7",
            "p=3 dims 27/81, Chebyshev scalarity, shadow formulas, commutant 1", t0, 300)


def test_criterion_8_unicity(g2c, t2c, rep_closed, field3):
    t0 = time.monotonic()
    rng = random.Random(20260808)
    found = 0
    for _ in range(5):
        j = {e: rng.randrange(3) for e in g2c.internal_edges}
        m = {e: rng.randrange(3) for e in g2c.internal_edges}
        other = gauge_shift(rep_closed, j, m)
        T = find_intertwiner(rep_closed, other, t2c)
        assert T is not None
        found += 1
    mism = replace(rep_closed, y={**rep_closed.y, "a0": field3.from_rational(2)})
    assert find_intertwiner(rep_closed, mism, t2c) is None
    _report("criterion 8", f"unicity: {found} gauge orbits intertwine, mismatch rejected", t0, 300)


def test_criterion_9_mutation_sensitivity(g2c, t2c, g2b, t2b, g3c, t3c):
    t0 = time.monotonic()
    plan = [("S1", g2c, t2c), ("S2", g2c, t2c), ("S3", g2c, t2c),
            ("S4", g2b, t2b), ("S5", g2b, t2b),
            ("S6", g2c, t2c), ("S7", g2c, t2c), ("S8", g2c, t2c),
            ("S9", g2c, t2c), ("S10", g3c, t3c), ("S11", g2c, t2c)]
    for suite, g, t in plan:
        rep = run_identity_suite(suite, g, mutate=True, table=t)
        assert not rep.all_pass, f"{suite} still passes under mutation"
        assert any(r.residual is not None and not r.residual.is_zero()
                   for r in rep.identities if not r.passed)
    _report("criterion 9", "A -> A^2 perturbation flips all 11 suites", t0, 60)
