"""Tests of the benchmark's own machinery: inputs, span arithmetic, tracing."""

import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import pytest  # noqa: E402

import skeintorus  # noqa: E402
from skeintorus import exactalg, embed, qtorus, repbuild, cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(name):
    a = workloads.generate(name, 7)
    b = workloads.generate(name, 7)
    assert [vars(r) for r in a] == [vars(r) for r in b]


@pytest.mark.parametrize("name", ["rep-g2", "sigma-mix"])
def test_seed_changes_inputs(name):
    a = workloads.generate(name, 7)
    b = workloads.generate(name, 8)
    assert [vars(r) for r in a] != [vars(r) for r in b]


def test_sigma_mix_has_enough_requests():
    reqs = workloads.generate("sigma-mix", 1)
    assert len(reqs) >= 100
    assert {r.graph for r in reqs} == set(workloads.SIGMA_GRAPHS)


def test_self_time_on_synthetic_tree():
    # root [0,10] with children a [1,4] and b [3,6] that overlap on [3,4];
    # a has child c [2,3]; b has child d [5,8] that runs past b's end.
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("d", 5.0, 8.0, 3, 0),
        ("e", 11.0, 12.0, -1, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 2.0, 3.0, 1.0])


def test_layer_metrics_from_synthetic_spans():
    tree = [
        ("embed.image", 0.0, 4.0, -1, 0),
        ("embed.twist_image", 1.0, 3.0, 0, 0),
        ("exactalg.exact_div", 1.5, 2.5, 1, 0),
        ("embed.image", 5.0, 6.0, -1, 1),
    ]
    counts = {"exactalg.exact_div.hits": 1, "exactalg.exact_div.dividend_terms": 40}
    m = spans.layer_metrics(tree, counts)
    assert m["embed.image.calls"] == 2
    assert m["embed.image.hit_ratio"] == 0.5
    assert m["exactalg.exact_div.self_s"] == pytest.approx(1.0)
    assert m["embed.twist_image.self_s"] == pytest.approx(1.0)
    assert m["embed.self_s"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert m["exactalg.exact_div.hit_ratio"] == 1.0
    assert m["exactalg.exact_div.dividend_terms"] == 40
    assert m["cli.parse.calls"] == 0


def _small_session():
    reqs = [workloads.CliRequest(("identities", "--genus", "2", "--closed", "--suite", "S1,S7"),
                                 {"graph": (2, True), "mutated": False}),
            workloads.CliRequest(("sigma", "--genus", "2", "--closed",
                                  "--expr", "commA(sigma(t[a0] beta[1]), sigma(gamma[1]))"),
                                 {})]
    return workloads.Session("identities-g2", reqs, skeintorus)


def _traced_counts():
    session = _small_session()
    tracer = spans.Tracer()

    def mark(i):
        tracer.request = i

    with tracer:
        _elapsed, _lats, outputs, errors = worker.run_pass(session, on_request=mark)
    assert errors == [None, None]
    rc, _text = outputs[0]
    assert rc == 0
    metrics = spans.layer_metrics(tracer.records(), tracer.counts)
    return {k: v for k, v in metrics.items() if not k.endswith(("self_s", "build_s"))}, tracer


def test_counts_repeat_across_traced_runs():
    first, tracer = _traced_counts()
    second, _ = _traced_counts()
    assert first == second
    assert first["exactalg.exact_div.calls"] > 0
    assert first["cli.parse.calls"] == 1
    assert {r[4] for r in tracer.records()} == {0, 1}


def test_wrappers_removed_after_tracing():
    originals = {
        "exact_div": exactalg.LPoly.__dict__["exact_div"],
        "qt_mul": qtorus.QTElem.__dict__["__mul__"],
        "cmatrix_mul": repbuild.CMatrix.__dict__["__mul__"],
        "a0_membership": qtorus.a0_membership,
        "twist_image": embed.twist_image,
        "parse": cli.parse_expression,
        "main": cli.main,
    }
    with spans.Tracer():
        assert exactalg.LPoly.__dict__["exact_div"] is not originals["exact_div"]
        assert embed.a0_membership is not originals["a0_membership"]
        assert repbuild.a0_membership is not originals["a0_membership"]
        assert repbuild.twist_image is not originals["twist_image"]
        assert skeintorus.parse_expression is not originals["parse"]
    assert exactalg.LPoly.__dict__["exact_div"] is originals["exact_div"]
    assert qtorus.QTElem.__dict__["__mul__"] is originals["qt_mul"]
    assert repbuild.CMatrix.__dict__["__mul__"] is originals["cmatrix_mul"]
    for mod in (qtorus, embed, repbuild, skeintorus):
        assert mod.a0_membership is originals["a0_membership"]
    for mod in (embed, repbuild, skeintorus):
        assert mod.twist_image is originals["twist_image"]
    assert cli.parse_expression is originals["parse"] is skeintorus.parse_expression
    assert cli.main is originals["main"]


def test_checks_reject_wrong_outputs():
    clean = {"graph": (2, True), "mutated": False}
    payload = [{"suite": s, "identities": [{"id": str(i), "pass": True, "residual_terms": []}
                                           for i in range(n)]}
               for s, n in workloads.IDENTITY_COUNTS[(2, True)].items()]
    assert workloads._check_identities(clean, 0, payload) is None
    assert workloads._check_identities({**clean, "mutated": True}, 1, payload) is not None
    assert workloads._check_identities(clean, 0, payload[1:]) is not None

    good = {"dim": 27, "shadows": {"alpha[a0]": "[4097/64, 0]"}, "checks": []}
    assert workloads._check_rep({"p": 3, "x": {"a0": 2}, "checks": []}, 0, good) is None
    assert workloads._check_rep({"p": 3, "x": {"a0": 3}, "checks": []}, 0, good) is not None


def test_host_speed_slowdown_and_restore():
    speed = worker.HostSpeed()
    ref = worker.PROBE_REF_S
    # samples inside [1, 2] and within one sampling period of it count
    speed.samples = [(0.0, 9 * ref), (0.9, 2 * ref), (1.5, 3 * ref), (2.1, 2 * ref),
                     (5.0, 9 * ref)]
    assert speed.slowdown(1.0, 2.0) == 2.0
    before = signal.getsignal(signal.SIGALRM)
    with speed:
        assert signal.getitimer(signal.ITIMER_REAL)[1] == worker.PROBE_EVERY_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentile_interpolates():
    assert worker.percentile([3.0], 0.9) == 3.0
    assert worker.percentile([1.0, 3.0], 0.5) == 2.0
    assert worker.percentile([1.0, 3.0], 0.9) == pytest.approx(2.8)
    assert worker.percentile(list(range(1, 102)), 0.9) == 91
