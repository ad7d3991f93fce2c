"""Expression parsing, round trips, subcommands and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skeintorus import embed, parse_expression, ParseError, QTElem, CycloField
from skeintorus.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_parse_sum_of_sigmas(g2c, t2c):
    value = parse_expression("sigma(beta[1]) + sigma(alpha[a0])", g2c, table=t2c)
    expect = t2c.image(g2c.curve_by_name("beta[1]")) + t2c.image(g2c.curve_by_name("alpha[a0]"))
    assert value == expect


def test_parse_commutator(g2c, t2c):
    value = parse_expression("commA(sigma(alpha[a0]), sigma(beta[1]))", g2c, table=t2c)
    a = t2c.image(g2c.curve_by_name("alpha[a0]"))
    b = t2c.image(g2c.curve_by_name("beta[1]"))
    assert value == (a * b).mul_a_power(1) - (b * a).mul_a_power(-1)


def test_parse_twist_prefixes(g2c, t2c):
    from skeintorus import twist_image
    value = parse_expression("sigma(t[a0] beta[1])", g2c, table=t2c)
    assert value == twist_image(t2c.image(g2c.curve_by_name("beta[1]")), "a0", 1, t2c)
    value = parse_expression("sigma(t-[a0] t[a0] beta[1])", g2c, table=t2c)
    assert value == t2c.image(g2c.curve_by_name("beta[1]"))


def test_parse_errors_are_positioned(g2c):
    with pytest.raises(ParseError) as err:
        parse_expression("sigma(beta[7])", g2c)
    assert "unknown curve" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("sigma(t[zz] beta[1])", g2c)
    with pytest.raises(ParseError):
        parse_expression("sigma(alpha[a0]", g2c)
    with pytest.raises(ParseError):
        parse_expression("Q[a0] ÷ 2", g2c)
    # digits and names are ASCII: a superscript or an Arabic-Indic digit is
    # an unexpected character, not an integer
    for src in ("A^²", "E[a0:١]"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_expression(src, g2c)


def test_round_trip_catalogue(g2c, t2c):
    for name in sorted(t2c.catalogue):
        img = t2c.image(t2c.catalogue[name])
        assert parse_expression(str(img), g2c, table=t2c) == img


def test_round_trip_zero_and_scalars(g2c, t2c):
    zero = QTElem.zero(g2c)
    assert parse_expression(str(zero), g2c, table=t2c) == zero
    x = parse_expression("A^-3 * Q[a0]^2 - 5", g2c, table=t2c)
    assert parse_expression(str(x), g2c, table=t2c) == x


def test_cli_sigma_pants(capsys):
    rc = main(["sigma", "--genus", "2", "--closed", "--expr", "sigma(alpha[a0])"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "(-1)*A^2*Q[a0]^2 + (-1)*A^-2*Q[a0]^-2"


def test_cli_sigma_json(capsys):
    rc = main(["sigma", "--genus", "2", "--closed", "--expr",
               "sigma(tau[c1])", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    exps = [d["exponents"].get("c1", 0) for d in payload]
    assert sorted(exps) == [-2, 0, 2]


def test_cli_sigma_bad_edge(capsys):
    rc = main(["sigma", "--genus", "2", "--expr", "sigma(t[a9] beta[1])"])
    assert rc == 2
    assert "unknown edge" in capsys.readouterr().err


def test_cli_sigma_non_ascii_digit_is_usage_error(capsys):
    rc = main(["sigma", "--genus", "2", "--closed", "--expr", "A^²"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("skein-torus: unexpected character '²'")
    assert len(err.strip().splitlines()) == 1


def _nested(depth, open_, close):
    return open_ * depth + "A" + close * depth


@pytest.mark.parametrize("expr, column", [
    (_nested(300, "(", ")"), 202),
    (_nested(201, "(", ")"), 202),
    (_nested(300, "commA(", ",A)"), 6 * 201 + 1),
    ("-(" * 250 + "A" + ")" * 250, 2 * 201 + 1),
], ids=["parens-300", "parens-201", "commA-300", "minus-parens-250"])
def test_cli_sigma_deep_nesting_is_usage_error(expr, column, capsys):
    # the parser recurses once per level of parentheses or commA
    rc = main(["sigma", "--genus", "2", "--closed", "--expr=" + expr])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == ("skein-torus: expression nested deeper than 200 levels "
                   f"(line 1, column {column})\n")


@pytest.mark.parametrize("expr, printed", [
    (_nested(200, "(", ")"), "(1)*A"),
    (_nested(200, "commA(", ",A)"), None),
    ("-" * 2000 + "A", "(1)*A"),
    ("-" * 2001 + "A", "(-1)*A"),
    ("--A^2 - -A", "(1)*A^2 + (1)*A"),
], ids=["parens-200", "commA-200", "minus-2000", "minus-2001", "minus-mixed"])
def test_cli_sigma_nesting_within_limit(expr, printed, capsys):
    # a run of unary minus signs does not nest
    rc = main(["sigma", "--genus", "2", "--closed", "--expr=" + expr])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    if printed is not None:
        assert out == printed + "\n"


@pytest.mark.parametrize("expr, printed", [
    ("(A^4 - 1) / (A^8 - 1) * (A^4 + 1)", "(1)"),
    ("(A*Q[a0]^2 - 1)/(A^2*Q[a0]^4 - 1) * (A*Q[a0]^2 + 1)", "(1)"),
    ("1/((A^4-1)*(A^4-1)) + 1/((A^4-1)*(A^8-1))",
     "( (1)*A^4 + (2) ) / ( (1)*A^12 + (-1)*A^8 + (-1)*A^4 + (1) )"),
], ids=["product-quantum", "product-u", "sum-quantum"])
def test_cli_sigma_reducible_factor_cancels(expr, printed, capsys):
    # a denominator factor whose pieces come from two numerators, or from
    # two lcm multipliers, cancels
    rc = main(["sigma", "--genus", "2", "--closed", "--expr", expr])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out == printed + "\n"


@pytest.mark.parametrize("argv, message", [
    (["sigma", "--genus", "2", "--closed", "--expr"],
     "sigma: argument --expr: expected one argument"),
    (["sigma", "--genus", "2", "--closed", "--expr", "A", "--bogus"],
     "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    # a value starting with "-" needs the = form, as in --boundary=-2*A^-2
    (["rep", "--p", "3", "--genus", "1", "--boundary", "-2*A^-2"],
     "rep: argument --boundary: expected one argument"),
], ids=["missing-value", "unknown-flag", "no-subcommand", "minus-value-split"])
def test_cli_argparse_errors_are_one_line(argv, message, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"skein-torus: {message}\n"


@pytest.mark.parametrize("expr, message", [
    ("1/sigma(beta[1])", "division by a non-invertible element (line 1, column 2)"),
    ("sigma(beta[1])^-1", "negative power of a non-invertible element (line 1, column 15)"),
    ("A +\n  sigma(beta[1]) ^ -2", "negative power of a non-invertible element (line 2, column 18)"),
    ("Q[zz]", "unknown variable Q[zz] (line 1, column 1)"),
    ("sigma(t)", "unknown curve kind 't' (line 1, column 7)"),
], ids=["division", "negative-power", "power-line-2", "unknown-variable", "bare-t"])
def test_cli_sigma_errors_point_at_their_token(expr, message, capsys):
    # a failed inversion points at its / or ^, not past the end of the input
    rc = main(["sigma", "--genus", "2", "--closed", "--expr", expr])
    assert rc == 2
    assert capsys.readouterr() == ("", f"skein-torus: {message}\n")


@pytest.mark.parametrize("argv, code, err", [
    (["sigma", "--genus", "2", "--closed", "--expr", "A"], 0, ""),
    (["sigma", "--genus", "2", "--closed", "--expr", "A", "--bogus"], 2,
     "skein-torus: unrecognized arguments: --bogus\n"),
], ids=["expression", "unknown-flag"])
def test_python_m_skeintorus(argv, code, err):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "skeintorus", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert proc.stdout == ("(1)*A\n" if code == 0 else "")


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sigma", "-h"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: skein-torus sigma")


def test_cli_sigma_bad_genus(capsys):
    rc = main(["sigma", "--genus", "0", "--expr", "sigma(alpha[a0])"])
    assert rc == 2


@pytest.mark.parametrize("expr, name", [
    ("A^536870911", None), ("A^536870912", "A"), ("A^-536870912", None),
    ("A^-536870913", "A"), ("Q[a0]^536870912", "Q[a0]"),
    ("Q[a0] * E[a0:536870912]", "A")])
def test_cli_sigma_exponent_beyond_slot_is_usage_error(expr, name, capsys):
    # exponents of the commuting variables live in [-2^29, 2^29 - 1]
    rc = main(["sigma", "--genus", "2", "--closed", "--expr", expr])
    out, err = capsys.readouterr()
    if name is None:
        assert rc == 0 and err == ""
        return
    assert rc == 2 and out == ""
    assert err.startswith("skein-torus: exponent ") and f" of {name} is outside" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_sigma_overflowing_power_names_the_power(capsys):
    assert main(["sigma", "--genus", "2", "--closed", "--expr", "A^99999999999"]) == 2
    assert capsys.readouterr().err == (
        "skein-torus: exponent of A is outside [-536870912, 536870911] in the power "
        "^99999999999 (line 1, column 3)\n")


def test_cli_sigma_integers_of_any_length(capsys):
    # Python converts at most 4300 digits between int and str by default
    limit = sys.get_int_max_str_digits()
    nines = "9" * 5000
    assert main(["sigma", "--genus", "2", "--closed", "--expr", "A^" + nines]) == 2
    assert capsys.readouterr() == ("", (
        "skein-torus: exponent of A is outside [-536870912, 536870911] in the power "
        f"^{nines} (line 1, column 3)\n"))
    assert main(["sigma", "--genus", "2", "--closed", "--expr", "10^4300"]) == 0
    assert capsys.readouterr() == (f"(1{'0' * 4300})\n", "")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("expr, message", [
    ("A +\n  2 * # A", "unexpected character '#' (line 2, column 7)"),
    ("sigma(beta[1])\r\n\t+ sigma(beta[9])", "unknown curve 'beta[9]' (line 2, column 10)"),
], ids=["tokenizer", "parser"])
def test_cli_sigma_error_on_second_line(expr, message, capsys):
    # every character is one column, and a newline starts line 2 at column 1
    assert main(["sigma", "--genus", "2", "--closed", "--expr", expr]) == 2
    assert capsys.readouterr() == ("", f"skein-torus: {message}\n")


@pytest.mark.parametrize("argv, rc, digest", [
    (["identities", "--genus", "2", "--closed", "--suite", "all", "--mutate"], 1,
     "dfe722baa55b88da1341abb1889554c3beb6a4bffc375283eb2894feccbbbb7a"),
    (["sigma", "--genus", "2", "--closed", "--expr", "sigma(beta[1])^4"], 0,
     "f9cb4401cf20b1b168d80b9dc9cfb0ff5ce0a17937ae13d76c362535a15070bb"),
], ids=["identities-mutated", "sigma-beta-4"])
def test_cli_printed_forms_are_pinned(argv, rc, digest, capsys):
    # the SHA-256 of stdout with times stripped: a change to where fractions
    # cancel that alters a printed form updates the digest and lists the form
    assert main(argv) == rc
    out = re.sub(r'"wall_time_ms": [0-9]+', '"wall_time_ms": N', capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_identities_pass_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["identities", "--genus", "2", "--closed", "--suite", "S1,S6",
               "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [r["suite"] for r in payload] == ["S1", "S6"]
    assert all(i["pass"] for r in payload for i in r["identities"])
    capsys.readouterr()


def test_cli_identities_suite_genus_mismatch(capsys):
    rc = main(["identities", "--genus", "1", "--suite", "S10"])
    assert rc == 2
    capsys.readouterr()


def test_cli_identities_mutated_fails(capsys):
    rc = main(["identities", "--genus", "2", "--closed", "--suite", "S1,S2", "--mutate"])
    assert rc == 1
    capsys.readouterr()


def test_cli_identities_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"genus": 2, "closed": True, "suite": "S1"}))
    rc = main(["identities", "--config", str(cfg)])
    assert rc == 0
    capsys.readouterr()


@pytest.mark.parametrize("config, message", [
    ([1], "must be a JSON object"),
    ({"genus": "two"}, "'genus' must be an integer"),
    ({"genus": True, "closed": True}, "'genus' must be an integer"),
    ({"genus": 2, "closed": "yes"}, "'closed' must be true or false"),
    ({"genus": 2, "closed": True, "suite": 9}, "'suite' must be a string"),
    ({"closed": True}, "identities: --genus is required"),
    ({"genus": 2, "closed": True, "suite": "S99"}, "identities: unknown suite S99"),
    ({"genus": 2, "closed": True, "suite": "S4"}, "identities: suite S4 needs a different graph"),
    ({"genus": 2, "closed": True, "suite": ""}, "identities: the suite list is empty"),
    ({"genus": 2, "closed": True, "genu": 2}, "unknown key 'genu'"),
    ({"genus": 2, "closed": True, "p": 3}, "unknown key 'p'"),
    ({"genus": 2, "closed": True, "mutate": "yes"}, "'mutate' must be true or false"),
    ({"genus": 2, "closed": True, "mutate": 1}, "'mutate' must be true or false"),
])
def test_cli_identities_bad_config_is_usage_error(config, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["identities", "--config", str(cfg)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("skein-torus: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_cli_identities_config_mutate_matches_the_flag(tmp_path, capsys):
    # a config's "mutate" is read as --mutate is: the mutated suite fails
    cfg = tmp_path / "cfg.json"
    for mutate, want in ((True, 1), (False, 0)):
        cfg.write_text(json.dumps({"genus": 2, "closed": True, "suite": "S1", "mutate": mutate}))
        assert main(["identities", "--config", str(cfg)]) == want
        by_config = json.loads(capsys.readouterr().out)
        argv = ["identities", "--genus", "2", "--closed", "--suite", "S1"]
        assert main(argv + ["--mutate"] * mutate) == want
        by_flag = json.loads(capsys.readouterr().out)
        for payload in (by_config, by_flag):
            for report in payload:
                report.pop("wall_time_ms")
        assert by_config == by_flag


@pytest.mark.parametrize("command", ["identities", "rep"])
def test_cli_config_nested_too_deeply_is_usage_error(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main([command, "--genus", "2", "--closed", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"skein-torus: {cfg}: the JSON is nested too deeply\n"


@pytest.mark.parametrize("suite", ["", ",", " , "])
def test_cli_identities_empty_suite_list_is_usage_error(suite, capsys):
    # exit 0 means every check passed, so a run of no suite is not a pass
    rc = main(["identities", "--genus", "2", "--closed", "--suite", suite])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "skein-torus: identities: the suite list is empty\n"


def test_cli_identities_refuses_a_missing_probe_before_any_suite(monkeypatch, capsys):
    # S1 can be mutated on one-boundary genus 1 and comes first, but S11's
    # probe has no separating curve: nothing runs and no table is built
    built, ran = [], []
    monkeypatch.setattr(embed.SigmaTable, "__init__", lambda self, graph: built.append(graph))
    monkeypatch.setattr(embed.SuiteReport, "collect",
                        classmethod(lambda cls, *args: ran.append(args)))
    rc = main(["identities", "--genus", "1", "--suite", "S1,S11", "--mutate"])
    assert (rc, built, ran) == (2, [], [])
    assert capsys.readouterr() == (
        "", "skein-torus: mutation probe needs a separating curve on this graph\n")


def test_cli_identities_repeated_suite_runs_once(capsys):
    rc = main(["identities", "--genus", "2", "--closed", "--suite", "S1,S6,S1, S6"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert [r["suite"] for r in json.loads(out)] == ["S1", "S6"]
    assert len(err.splitlines()) == 2


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_cli_identities_unreadable_config_is_usage_error(kind, tmp_path, capsys):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"genus": 2, "suite": "\xff"}')
    rc = main(["identities", "--config", str(path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("skein-torus: ")
    assert len(err.strip().splitlines()) == 1


def test_cli_identities_all_one_boundary_genus3(capsys):
    # two two-cycle curves: each S5 identity must check its own curve
    assert main(["identities", "--genus", "3", "--suite", "all"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in payload] == [f"S{i}" for i in range(1, 12)]
    assert main(["identities", "--genus", "3", "--suite", "all", "--mutate"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not any(all(i["pass"] for i in r["identities"]) for r in payload
                   if r["suite"] in ("S5", "S10"))


def test_cli_identities_all_mutated_genus1_runs_probed_suites(capsys):
    # one-boundary genus 1 has no separating curve, so S11's probe has no
    # target: `all` leaves it out, an explicit request is a usage error
    assert main(["identities", "--genus", "1", "--suite", "all", "--mutate"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in payload] == ["S1", "S2", "S3"]
    for r in payload:
        assert any(i["residual_terms"] for i in r["identities"] if not i["pass"]), r["suite"]
    assert main(["identities", "--genus", "1", "--suite", "S11", "--mutate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "skein-torus: mutation probe needs a separating curve on this graph"]


def test_cli_identities_all_supported(capsys):
    rc = main(["identities", "--genus", "2", "--closed", "--suite", "all"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in payload] == ["S1", "S2", "S3", "S6", "S7", "S8", "S9", "S11"]


def test_cli_rep_all_checks(capsys):
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed",
               "--x", "a0=2,a1=5,c1=3",
               "--checks", "shadows,irreducible,unicity"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 27
    ids = [c.get("id") or c.get("suite") for c in payload["checks"]]
    assert ids == ["cshadow", "commutant_dimension", "unicity_gauge_orbits"]
    assert all(isinstance(c["wall_time_ms"], int) for c in payload["checks"])
    # shadow scalars come out as cyclotomic coefficient vectors
    assert payload["shadows"]["alpha[a0]"] == "[4097/64, 0]"


def test_cli_rep_default_run(capsys):
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed",
               "--x", "a0=2,a1=5,c1=3", "--checks", "irreducible"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 27
    check = payload["checks"][0]
    assert isinstance(check.pop("wall_time_ms"), int)
    assert check == {"id": "commutant_dimension", "value": 1, "pass": True}


def test_cli_rep_closed_genus3_all_checks(capsys):
    # dimension 3^6 = 729: six internal edges, curves on up to three factors
    rc = main(["rep", "--p", "3", "--genus", "3", "--closed",
               "--checks", "shadows,irreducible,unicity"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 729
    cshadow, commutant, unicity = payload["checks"]
    assert cshadow["suite"] == "cshadow" and cshadow["identities"]
    assert all(i["pass"] for i in cshadow["identities"])
    assert commutant["id"] == "commutant_dimension" and commutant["value"] == 1
    assert commutant["pass"] and unicity["id"] == "unicity_gauge_orbits" and unicity["pass"]


def test_cli_rep_boundary_starting_with_minus(capsys):
    # joined by "=", a value that starts with "-" is not read as a flag
    rc = main(["rep", "--p", "3", "--genus", "1", "--boundary=-2*A^-2", "--checks", "shadows"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["boundary"] == "[0, 2]"


def test_cli_rep_skips_an_empty_assignment(capsys):
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", "--x", "a0=2,,a1=5",
               "--checks", "shadows"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    # c1 keeps its default
    assert json.loads(out)["x"] == {"a0": "[2, 0]", "a1": "[5, 0]", "c1": "[3, 0]"}


def test_cli_rep_genericity_failure(capsys):
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed",
               "--x", "a0=1,a1=5,c1=3", "--checks", "irreducible"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("skein-torus: rep: ") and "genericity" in err


@pytest.mark.parametrize("argv, message", [
    (["--p", "4"], "p must be an odd natural"),
    (["--p", "3", "--x", "a0=abc"], "abc"),
    (["--p", "3", "--x", "a0=1/0"], "zero denominator"),
    (["--p", "3", "--x", "zz=4"], "'zz'"),
    (["--p", "3", "--y", "qq=2"], "'qq'"),
    (["--p", "3", "--checks", "foo"], "unknown check 'foo'"),
    (["--p", "3", "--checks", "shadows,foo"], "unknown check 'foo'"),
    (["--p", "3", "--x", "a0=2,a1=5,c1=3", "--boundary", "5", "--checks", "shadows"],
     "closed genus-2 graph has none"),
    (["--p", "3", "--checks", ""], "the check list is empty"),
    (["--p", "3", "--checks", ","], "the check list is empty"),
    (["--p", "3", "--x", "a0=[2,1", "--checks", "shadows"], "bad assignment '1'"),
])
def test_cli_rep_bad_input_is_usage_error(argv, message, capsys):
    rc = main(["rep", "--genus", "2", "--closed", *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--genus", "1", "--checks", "shadows"],
                                  ["--genus", "2", "--checks", "irreducible"]])
def test_cli_rep_zero_boundary_is_usage_error(argv, capsys):
    rc = main(["rep", "--p", "3", "--boundary", "0", *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "'check': 'nonzero'" in err


def test_cli_rep_config_file(tmp_path, capsys):
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"p": 3, "genus": 1, "closed": False,
                               "x": {"a0": "2"}, "y": {"a0": "4"},
                               "boundary": "1", "checks": "shadows"}))
    rc = main(["rep", "--config", str(cfg)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 3
    assert payload["shadows"]["alpha[a0]"]


@pytest.mark.parametrize("key, value", [("x", {"zz": "4"}), ("y", {"qq": "2"}), ("x", "a0=2"),
                                        ("boundary", "5"), (None, [1]), ("genus", "two"),
                                        ("p", "5"), ("checks", ""),
                                        (None, {"p": 3, "closed": True})])
def test_cli_rep_config_bad_assignment_is_usage_error(key, value, tmp_path, capsys):
    # key None: the value is the whole config (the last one has no genus)
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps(value if key is None
                              else {"p": 3, "genus": 2, "closed": True, key: value}))
    rc = main(["rep", "--config", str(cfg)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("key", ["genu", "mutate", "suite", "X", ""])
def test_cli_rep_config_unknown_key_is_usage_error(key, tmp_path, capsys):
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"p": 3, "genus": 2, "closed": True, key: 2}))
    rc = main(["rep", "--config", str(cfg), "--checks", "shadows"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"skein-torus: {cfg}: unknown key {key!r} "
                   "(known: p, genus, closed, checks, x, y, boundary)\n")


@pytest.mark.parametrize("flag, value", [("--x", "a0=2,a0=3"), ("--x", "a0=2, a0 =2"),
                                         ("--y", "c1=[1,2],a0=1,c1=3")])
def test_cli_rep_edge_assigned_twice_is_usage_error(flag, value, capsys):
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", flag, value, "--checks", "shadows"])
    assert rc == 2
    edge = "c1" if flag == "--y" else "a0"
    assert capsys.readouterr() == ("", f"skein-torus: rep: {flag} assigns to {edge!r} twice\n")


def test_cli_rep_coefficient_list_by_flag_and_config(tmp_path, capsys):
    # a value [c0,c1,...] keeps its commas; the flag and the config agree
    base = ["rep", "--p", "3", "--genus", "2", "--closed", "--checks", "shadows"]
    assert main([*base, "--x", "a0=[2,1],c1=[0,3]"]) == 0
    by_flag = json.loads(capsys.readouterr().out)
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"x": {"a0": "[2,1]", "c1": "[0,3]"}}))
    assert main([*base, "--config", str(cfg)]) == 0
    by_config = json.loads(capsys.readouterr().out)
    assert by_flag["x"] == {"a0": "[2, 1]", "a1": "[5, 0]", "c1": "[0, 3]"}
    for payload in (by_flag, by_config):
        for check in payload["checks"]:
            check.pop("wall_time_ms")
    assert by_flag == by_config


@pytest.mark.parametrize("x", ["a0=1e3000", "a0=[1e3000,0]", "a0=2*A^3*1E3"])
def test_cli_rep_exponent_notation_is_usage_error(x, capsys):
    # read as an exact number, 1e3000 would be a 3,001-digit integer
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", "--x", x, "--checks", "shadows"])
    assert rc == 2
    assert capsys.readouterr() == ("", f"skein-torus: rep: bad cyclotomic literal {x[3:]!r}: "
                                       "exponent notation is not accepted\n")


def test_cli_rep_config_float_in_exponent_notation_is_usage_error(tmp_path, capsys):
    # a JSON float this large prints as 1e+300
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"x": {"a0": 1e300}}))
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", "--config", str(cfg),
               "--checks", "shadows"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("skein-torus: rep: bad cyclotomic literal '1e+300'")


@pytest.mark.parametrize("x", ["a0=2**3", "a0=*", "a0=", "a0=1_0", "a0=\u0663", "a0=2/",
                               "a0=[1,]"])
def test_cli_rep_bad_scalar_literal_is_usage_error(x, capsys):
    # each was read before as another value (2**3 as 6, * and the empty text
    # as 1, 1_0 as 10) or refused with Python's own wording
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", "--x", x, "--checks", "shadows"])
    assert rc == 2
    assert capsys.readouterr() == ("", f"skein-torus: rep: bad cyclotomic literal {x[3:]!r}\n")


@pytest.mark.parametrize("value, text", [(True, "True"), (None, "None")])
def test_cli_rep_config_non_number_is_usage_error(value, text, tmp_path, capsys):
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"x": {"a0": value}}))
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", "--config", str(cfg),
               "--checks", "shadows"])
    assert rc == 2
    assert capsys.readouterr() == ("", f"skein-torus: rep: bad cyclotomic literal {text!r}\n")


@pytest.mark.parametrize("x, read", [("a0=3/2", "[3/2, 0]"), ("a0=[1,1/2]", "[1, 1/2]")])
def test_cli_rep_rational_literals_parse(x, read, capsys):
    rc = main(["rep", "--p", "3", "--genus", "2", "--closed", "--x", x, "--checks", "shadows"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["x"]["a0"] == read


def test_cli_rep_dimension_above_limit_is_usage_error(monkeypatch, capsys):
    from skeintorus import repbuild

    def no_space(*args):
        raise AssertionError("the basis was allocated")

    monkeypatch.setattr(repbuild, "RepSpace", no_space)
    rc = main(["rep", "--p", "7", "--genus", "3", "--closed"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "p = 7" in err and "6 internal edges" in err and "117649" in err


def test_cli_rep_dimension_is_checked_before_the_field(monkeypatch, capsys):
    # the field for p = 1001 alone takes seconds to build
    def no_field(*args):
        raise AssertionError("the field was built")

    monkeypatch.setattr(CycloField, "__init__", no_field)
    rc = main(["rep", "--p", "1001", "--genus", "2", "--closed"])
    assert rc == 2
    assert capsys.readouterr() == ("", "skein-torus: rep: p = 1001 on 3 internal edges gives "
                                       "dimension 1003003001, above the limit 2500\n")
