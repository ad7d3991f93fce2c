"""Seeded fuzzing of the command line: grammar-shaped ``sigma`` expressions,
``rep`` flag lists and ``rep --config`` files, half of each with one
structural character deleted, inserted or replaced.

Every input must exit 0 or 2 (``rep``: 0, 1 or 2) within its time budget, and
an error must be one line that starts with the program name, never a
traceback.  The seeds are fixed.
"""

import json
import random
import re
import signal

import pytest

from skeintorus.cli import main

SEED = 20261020
N_INPUTS = 200
BUDGET_S = 5
EXPONENTS = (-1, 0, 1, 2, 3)
EDGES = ("a0", "a1", "c1")
CURVES = ("alpha[a0]", "alpha[a1]", "alpha[c1]", "beta[1]", "beta[2]", "gamma[1]",
          "tau[c1]", "taubar[c1]")
STRUCTURAL = "()[],:+-*/^ "


def _atom(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        twists = "".join(f"t{rng.choice(['', '-'])}[{rng.choice(EDGES)}] "
                         for _ in range(rng.randrange(3)))
        return f"sigma({twists}{rng.choice(CURVES)})"
    if kind == 1:
        exps = ", ".join(f"{e}:{rng.choice(EXPONENTS)}"
                         for e in rng.sample(EDGES, rng.randrange(1, 3)))
        return f"E[{exps}]"
    if kind == 2:
        return rng.choice(["A", f"Q[{rng.choice(EDGES)}]"])
    if kind == 3:
        return str(rng.randrange(1, 6))
    return f"sigma({rng.choice(CURVES)})"


def _expr(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng)
    x = _expr(rng, depth - 1)
    kind = rng.randrange(5)
    if kind == 0:
        return f"{x} {rng.choice('+-')} {_expr(rng, depth - 1)}"
    if kind == 1:
        return f"{x} * {_expr(rng, depth - 1)}"
    if kind == 2:
        return f"({x})^{rng.choice(EXPONENTS)}"
    if kind == 3:
        return f"commA({x}, {_expr(rng, depth - 1)})"
    return f"-({x})"


def _digit_run(text: str) -> int:
    return max((len(m) for m in re.findall(r"[0-9]+", text)), default=0)


def _mutate(rng: random.Random, text: str, structural: str = STRUCTURAL) -> str:
    """One structural character deleted, inserted or replaced.  A digit is
    never inserted, and a mutant whose digits join into a longer number is
    drawn again: '^1' followed by '9' is a 19th power, legitimate work that
    no per-input budget should have to cover."""
    while True:
        i = rng.randrange(len(text))
        op = rng.randrange(3)
        if op == 0:
            out = text[:i] + text[i + 1:]
        elif op == 1:
            out = text[:i] + rng.choice(structural) + text[i:]
        else:
            out = text[:i] + rng.choice(structural) + text[i + 1:]
        if out and _digit_run(out) <= _digit_run(text):
            return out


def _inputs() -> list[str]:
    rng = random.Random(SEED)
    out = []
    for n in range(N_INPUTS):
        text = _expr(rng, 3)
        out.append(_mutate(rng, text) if n % 2 else text)
    return out


def _timeout(signum, frame):
    raise TimeoutError(f"input ran past its {BUDGET_S} s budget")


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, _timeout)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_sigma_fuzz_exits_cleanly(alarm, capsys):
    codes = []
    for text in _inputs():
        signal.alarm(BUDGET_S)
        try:
            rc = main(["sigma", "--genus", "2", "--closed", "--expr", text])
        finally:
            signal.alarm(0)
        out, err = capsys.readouterr()
        assert rc in (0, 2), (text, rc)
        if rc == 0:
            assert out and not err, text
        else:
            assert not out, text
            assert err.startswith("skein-torus: ") and err.count("\n") == 1, (text, err)
        codes.append(rc)
    # the stream exercises both outcomes
    assert codes.count(0) >= N_INPUTS // 4 and codes.count(2) >= N_INPUTS // 4


REP_SEED = 20261021
N_REP_INPUTS = 60
# (p, genus, closed); closed genus 1 has no hyperbolic decomposition and is a
# usage error.  p = 5 on one-boundary genus 2 (dimension 625) costs 1-2 s a
# run, more than this test's share of the suite, and is left out.
REP_SHAPES = ((3, 1, False), (3, 1, True), (3, 2, True), (3, 2, False),
              (5, 1, False), (5, 2, True))
REP_EDGES = {1: ("a0",), 2: ("a0", "a1", "b1", "c1")}
REP_STRUCTURAL = "=,[]()/*^-+. A"


def _scalar(rng: random.Random, deg: int) -> str:
    """A literal of parse_cyclo_scalar's grammar; a vector may be one entry
    longer than the field's degree, which is refused."""
    kind = rng.randrange(5)
    if kind == 0:
        return str(rng.choice((2, 3, 5, 7, 11, 13, -3)))
    if kind == 1:
        return f"{rng.choice((-5, 3, 7, 11))}/{rng.choice((2, 4, 9))}"
    if kind == 2:
        return rng.choice(("1.25", "2.5", "-0.75", ".5"))
    if kind == 3:
        return f"{rng.choice((2, 3, -2))}*{rng.choice(('A', '-A', '(-A)'))}^{rng.randrange(-3, 5)}"
    return "[" + ",".join(rng.choice(("0", "1", "3", "-1", "1/2"))
                          for _ in range(rng.randrange(1, deg + 2))) + "]"


def _rep_argv(rng: random.Random) -> list[str]:
    p, genus, closed = rng.choice(REP_SHAPES)
    edges = [e for e in REP_EDGES[genus] if not (closed and e == "b1")]
    deg = p - 1
    argv = ["rep", "--p", str(p), "--genus", str(genus)] + (["--closed"] if closed else [])
    if rng.random() < 0.8:
        argv += ["--x", ",".join(f"{e}={_scalar(rng, deg)}" for e in edges)]
    if rng.random() < 0.5:
        gauged = rng.sample(edges, rng.randrange(1, len(edges) + 1))
        argv += ["--y", ",".join(f"{e}={_scalar(rng, deg)}" for e in gauged)]
    if rng.random() < (0.1 if closed else 0.5):
        argv += ["--boundary", _scalar(rng, deg)]
    return argv + ["--checks", ",".join(rng.sample(("shadows", "irreducible", "unicity"),
                                                   rng.randrange(1, 4)))]


def _rep_inputs() -> list[list[str]]:
    rng = random.Random(REP_SEED)
    out = []
    for n in range(N_REP_INPUTS):
        argv = _rep_argv(rng)
        if n % 2:
            # one character of the command line after "rep", as a shell splits it
            argv = ["rep"] + _mutate(rng, " ".join(argv[1:]), REP_STRUCTURAL).split()
        out.append(argv)
    return out


def _run_rep(argv: list[str], capsys, what) -> int:
    """Run one rep command line within the budget and check how it exits:
    0, 1 or 2; a usage error as one line and no report, anything else as a
    report and no error.  ``what`` names the input in a failure."""
    signal.alarm(BUDGET_S)
    try:
        rc = main(argv)
    finally:
        signal.alarm(0)
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2), (what, rc)
    if rc == 2:
        assert not out, what
        assert err.startswith("skein-torus: ") and err.count("\n") == 1, (what, err)
    else:
        assert out.startswith("{") and not err, what
    return rc


def test_rep_fuzz_exits_cleanly(alarm, capsys):
    codes = [_run_rep(argv, capsys, argv) for argv in _rep_inputs()]
    # the stream exercises both a built representation and a refused input
    assert codes.count(0) >= N_REP_INPUTS // 6 and codes.count(2) >= N_REP_INPUTS // 6


CONFIG_SEED = 20261022
N_CONFIG_INPUTS = 60
CONFIG_STRUCTURAL = '{}[]":, '
# values of no flag's type: floats (1e+300 is how JSON prints a large one),
# null, strings, lists and nested objects
MISTYPED = (1e300, 2.0, -0.5, None, True, "3", "", [3], [], {"a0": 2}, {"p": {"q": [None]}})
# values that are no scalar literal, or none this field takes
BAD_SCALARS = (1e300, None, True, [1, 2, 3, 4, 5, 6, 7], {"re": 2}, "2e3")


def _config_value(rng: random.Random, key: str, shape) -> object:
    """A good value for ``key`` most of the time, else a refused value of the
    key's type, else one of another type."""
    p, genus, closed = shape
    if rng.random() < 0.05:
        return rng.choice(MISTYPED)
    bad = rng.random() < 0.05
    edges = [e for e in REP_EDGES[genus] if not (closed and e == "b1")]
    if key == "p":
        # no odd root order >= 3
        return rng.choice((4, 1, 0, -3)) if bad else p
    if key == "genus":
        # 7 is far above MAX_DIM at every p, and refused before any work
        return rng.choice((0, -1, 7)) if bad else genus
    if key == "closed":
        return closed
    if key == "checks":
        return rng.choice(("", "bogus")) if bad else ",".join(
            rng.sample(("shadows", "irreducible", "unicity"), rng.randrange(1, 4)))
    if key in ("x", "y"):
        assigned = rng.sample(edges, rng.randrange(1, len(edges) + 1)) + ["zz"] * bad
        return {e: rng.choice(BAD_SCALARS) if rng.random() < 0.05
                else rng.choice((_scalar(rng, p - 1), rng.randrange(2, 9))) for e in assigned}
    return None if bad else _scalar(rng, p - 1)  # boundary; null is no boundary


def _config_text(rng: random.Random) -> tuple[list[str], str]:
    """Flags for a cheap shape of REP_SHAPES, and a config text that may
    override each of them: each key is left out at random, an unknown key is
    added now and then, and now and then the text holds no object."""
    shape = p, genus, closed = rng.choice(REP_SHAPES)
    argv = ["rep", "--p", str(p), "--genus", str(genus)] + (["--closed"] if closed else [])
    cfg = {key: _config_value(rng, key, shape)
           for key in ("p", "genus", "closed", "checks", "x", "y", "boundary")
           if rng.random() < 0.5}
    if rng.random() < 0.1:
        cfg[rng.choice(("genu", "mutate", "json", "P", "x "))] = rng.choice((2, True, "S1"))
    if rng.random() < 0.05:
        cfg = rng.choice((None, [cfg], "rep", 3))
    return argv + ["--checks", "shadows"], json.dumps(cfg)


def test_rep_config_fuzz_exits_cleanly(alarm, capsys, tmp_path):
    rng = random.Random(CONFIG_SEED)
    path = tmp_path / "rep.json"
    codes = []
    for n in range(N_CONFIG_INPUTS):
        argv, text = _config_text(rng)
        if n % 2:
            text = _mutate(rng, text, CONFIG_STRUCTURAL)
        path.write_text(text)
        codes.append(_run_rep(argv + ["--config", str(path)], capsys, text))
    # the stream exercises both a built representation and a refused config
    assert codes.count(0) >= N_CONFIG_INPUTS // 6 and codes.count(2) >= N_CONFIG_INPUTS // 6
