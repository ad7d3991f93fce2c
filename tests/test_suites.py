"""Identity suites: clean passes, configuration guards, mutation probes."""

import pytest

from skeintorus import run_identity_suite, suite_ids, suite_supported, ConfigError


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


@pytest.mark.parametrize("suite", ["S1", "S2", "S3", "S6", "S7", "S8", "S9", "S11"])
def test_mutation_flips_suite(suite, g2c, t2c):
    report = run_identity_suite(suite, g2c, mutate=True, table=t2c)
    assert not report.all_pass
    failed = [r for r in report.identities if not r.passed]
    assert all(r.residual is not None and not r.residual.is_zero() for r in failed)


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
