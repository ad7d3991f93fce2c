"""Seeded fuzzing of the ``sigma`` command line: grammar-shaped expressions,
half of them with one structural character deleted, inserted or replaced.

Every input must exit 0 or 2 within its time budget, and an error must be one
line that starts with the program name, never a traceback.  The seed is fixed.
"""

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


def _mutate(rng: random.Random, text: str) -> str:
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
            out = text[:i] + rng.choice(STRUCTURAL) + text[i:]
        else:
            out = text[:i] + rng.choice(STRUCTURAL) + text[i + 1:]
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
