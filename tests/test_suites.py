"""Identity suites: clean passes, configuration guards, mutation probes."""

import itertools
import time

import pytest

from skeintorus import (run_identity_suite, suite_ids, suite_supported, ConfigError,
                        QTElem, SausageGraph, SigmaTable, SuiteReport, build_rep,
                        expand_support_check, fracdehn_check, verify_cshadow)
from skeintorus import embed
from skeintorus.embed import _suite_s5, _suite_s10


def test_suite_registry():
    assert suite_ids() == [f"S{i}" for i in range(1, 12)]


@pytest.mark.parametrize("suite", ["S1", "S2", "S3", "S11"])
def test_small_suites_genus1(suite, g1b, t1b):
    report = run_identity_suite(suite, g1b, table=t1b)
    assert report.all_pass
    assert report.genus == 1 and not report.closed


@pytest.mark.parametrize("suite", ["S1", "S2", "S3", "S6", "S7", "S8", "S9", "S11"])
def test_suites_genus2_closed(suite, g2c, t2c):
    report = run_identity_suite(suite, g2c, table=t2c)
    assert report.all_pass, [r.id for r in report.identities if not r.passed]


@pytest.mark.parametrize("suite", ["S4", "S5"])
def test_two_cycle_suites_genus2_boundary(suite, g2b, t2b):
    report = run_identity_suite(suite, g2b, table=t2b)
    assert report.all_pass, [r.id for r in report.identities if not r.passed]


def test_unsupported_configuration_raises(g1b, g2c):
    with pytest.raises(ConfigError):
        run_identity_suite("S10", g1b)
    with pytest.raises(ConfigError):
        run_identity_suite("S4", g2c)
    assert not suite_supported("S10", g2c)
    with pytest.raises(KeyError):
        run_identity_suite("S99", g2c)


def test_s9_s10_partners_come_from_one_helper(g3c, t3c, monkeypatch):
    # closed genus 3: c1 has the loop a0 on its left, c2 the handle {a1, b1}
    assert [(n, c.edges[0], b.edges) for n, c, b in embed._partners(g3c, "one_cycle")] == [
        ("gamma[1]", "c1", ("a0", "c1"))]
    assert [(n, c.edges[0], b.edges) for n, c, b in embed._partners(g3c, "two_cycle")] == [
        ("gamma[2]", "c2", ("a1", "b1", "c1", "c2"))]
    # the registry and the suites read the same helper
    monkeypatch.setattr(embed, "_partners", lambda g, kind: [])
    assert not suite_supported("S9", g3c) and not suite_supported("S10", g3c)
    assert list(embed._suite_s9(t3c)) == [] and list(_suite_s10(t3c)) == []


@pytest.mark.parametrize("genus, closed", [(1, False), (2, False), (2, True), (3, False),
                                           (3, True), (5, False), (5, True)])
def test_s9_s10_realizability_by_left_edges(genus, closed):
    # a separating edge with a loop on its left (d1 = d4) realizes S9, one
    # with a handle there realizes S10
    g = SausageGraph(genus, closed)
    assert suite_supported("S9", g) == any(d1 == d4 for _c, d1, _d2, _d3, d4 in g.seps)
    assert suite_supported("S10", g) == any(d1 != d4 for _c, d1, _d2, _d3, d4 in g.seps)


def test_missing_probe_is_refused_before_a_table_is_built(g1b, monkeypatch):
    built = []
    monkeypatch.setattr(SigmaTable, "__init__", lambda self, graph: built.append(graph))
    assert suite_supported("S11", g1b) and not suite_supported("S11", g1b, mutate=True)
    with pytest.raises(ConfigError, match="needs a separating curve"):
        run_identity_suite("S11", g1b, mutate=True)
    assert built == []


@pytest.mark.parametrize("suite", ["S1", "S2", "S3", "S6", "S7", "S8", "S9", "S11", "S10"])
def test_mutation_flips_suite(suite, request):
    # S10 needs a separating edge next to an interior handle: closed genus 3
    g, t = ("g3c", "t3c") if suite == "S10" else ("g2c", "t2c")
    report = run_identity_suite(suite, request.getfixturevalue(g), mutate=True,
                                table=request.getfixturevalue(t))
    assert not report.all_pass
    failed = [r for r in report.identities if not r.passed]
    assert all(r.residual is not None and not r.residual.is_zero() for r in failed)


@pytest.mark.parametrize("suite, graph, table, limit", [
    ("S9", "g2c", "t2c", 20), ("S9", "g2b", "t2b", 20), ("S10", "g3c", "t3c", 54)])
def test_commutator_suites_form_each_product_once(suite, graph, table, limit, request,
                                                   monkeypatch):
    # xy and yx serve both [x, y]_A and [y, x]_A at each separating curve
    products = []
    real_mul = QTElem.__mul__

    def counting_mul(x, y):
        products.append((x, y))
        return real_mul(x, y)

    g, t = request.getfixturevalue(graph), request.getfixturevalue(table)
    monkeypatch.setattr(QTElem, "__mul__", counting_mul)
    report = run_identity_suite(suite, g, table=t)
    monkeypatch.undo()
    assert report.all_pass
    assert len(products) <= limit


def _recording(real, ops):
    def op(x, y):
        ops.append((x, y))
        return real(x, y)
    return op


def _operands_by_identity(suite, t, monkeypatch):
    """(id, operands) for each identity the suite yields: the operands of
    every torus product and difference made since the previous identity."""
    ops = []
    for name in ("__mul__", "__sub__"):
        monkeypatch.setattr(QTElem, name, _recording(getattr(QTElem, name), ops))
    out = []
    for ident, _residual in suite(t):
        out.append((ident, [x for pair in ops for x in pair]))
        ops.clear()
    monkeypatch.undo()
    return out


def test_s10_identities_use_their_own_curve(monkeypatch):
    # closed genus 4 has two separating curves next to interior handles; the
    # products and differences of each identity must come from its own
    # curve's operands
    g = SausageGraph(4, True)
    t = SigmaTable(g)
    curves = set()
    for ident, operands in _operands_by_identity(_suite_s10, t, monkeypatch):
        name = ident.split("[", 1)[1][:-1]
        assert operands, ident
        used = {g.internal_edges[i] for x in operands for k in x.terms
                for i, v in enumerate(k) if v}
        assert used <= set(t.catalogue[name].edges), ident
        curves.add(name)
    assert curves == {"gamma[2]", "gamma[3]"}


def _edges_used(x):
    """Internal edges of a torus element's E-support and of the Q variables
    in its coefficients."""
    g = x.graph
    used = {g.internal_edges[i] for k in x.terms for i, v in enumerate(k) if v}
    for f in x.terms.values():
        for poly in (f.num, f.den()):
            used |= {g.ctx.names[i][2:-1] for e, _c in poly.exp_items()
                     for i, v in enumerate(e) if v and g.ctx.names[i].startswith("Q[")}
    return used


def test_s5_identities_use_their_own_curve(monkeypatch):
    # one-boundary genus 3 has two two-cycle curves; every product and
    # difference made for an identity must involve its own curve's edges only
    g = SausageGraph(3, False)
    t = SigmaTable(g)
    curves = set()
    for ident, operands in _operands_by_identity(_suite_s5, t, monkeypatch):
        name = ident.split("[", 1)[1][:-1].split(":")[0]
        assert operands, ident
        for x in operands:
            assert _edges_used(x) <= set(t.catalogue[name].edges), ident
        curves.add(name)
    assert curves == {"beta[2]", "beta[3]"}
    report = run_identity_suite("S5", g, table=t)
    assert report.all_pass, [r.id for r in report.identities if not r.passed]


def test_mutation_flips_two_cycle_suites(g2b, t2b):
    for suite in ("S4", "S5"):
        report = run_identity_suite(suite, g2b, mutate=True, table=t2b)
        assert not report.all_pass


def test_report_json_shape(g2c, t2c):
    report = run_identity_suite("S6", g2c, table=t2c)
    js = report.to_json()
    assert js["suite"] == "S6" and js["genus"] == 2 and js["closed"] is True
    assert isinstance(js["wall_time_ms"], int)
    for item in js["identities"]:
        assert set(item) == {"id", "pass", "residual_terms"}
        assert item["pass"] is True and item["residual_terms"] == []
    bad = run_identity_suite("S6", g2c, mutate=True, table=t2c)
    any_residual = [i for i in bad.to_json()["identities"] if not i["pass"]]
    assert any_residual and all(i["residual_terms"] for i in any_residual)


@pytest.mark.parametrize("closed, at_most", [(True, 2), (False, 4)])
def test_suites_read_twisted_images_from_the_table(closed, at_most, monkeypatch, capsys):
    # each twisted curve is twisted once per run and then read by name; a
    # chained twist t_b t_c twists the kept t_c at b only, so one boundary makes 4
    from skeintorus import cli, embed
    calls = []
    twist = embed.twist_image

    def counted(*args):
        calls.append(args[1:3])
        return twist(*args)

    monkeypatch.setattr(embed, "twist_image", counted)
    argv = ["identities", "--genus", "2", "--suite", "all"] + (["--closed"] if closed else [])
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= at_most, calls


def test_every_check_reads_the_clock_once_before_and_once_after(g2c, t2c, monkeypatch):
    # tables and representations are built first: a report times its results only
    rep = build_rep(g2c, 3, {"a0": 2, "a1": 5, "c1": 3})
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    reports = [run_identity_suite("S6", g2c, table=t2c),
               run_identity_suite("S6", g2c, mutate=True, table=t2c),
               fracdehn_check(g2c.curve_by_name("beta[1]"), t2c),
               expand_support_check(t2c),
               verify_cshadow(rep, t2c)]
    assert [r.wall_time_ms for r in reports] == [1000] * 5


def test_collect_records_bools_and_residuals(g2c, monkeypatch):
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])

    def results():
        # each result is computed inside the timed span, when it is asked for
        for ident, result in [("a", True), ("b", False), ("c", QTElem.zero(g2c)),
                              ("d", QTElem.e_monomial(g2c, {"a0": 1}))]:
            now[0] += 1
            yield ident, result

    report = SuiteReport.collect("X", g2c, results())
    assert [r.passed for r in report.identities] == [True, False, True, False]
    assert [r.id for r in report.identities if r.residual is not None] == ["d"]
    assert report.wall_time_ms == 4000
    js = report.to_json()
    assert (js["suite"], js["genus"], js["closed"]) == ("X", 2, True)
    assert js["identities"][1] == {"id": "b", "pass": False, "residual_terms": []}
    assert js["identities"][3]["residual_terms"] == QTElem.e_monomial(g2c, {"a0": 1}).to_json()
