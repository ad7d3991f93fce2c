"""The benchmark's workloads: seeded inputs, how each request is sent, and the
checks on every output.

Inputs are generated here without importing the package, so the program under
test receives only generated inputs.  Every workload is a closed loop with one
client: a pass sends the workload's requests one after another, each only
after the previous one returned, and starts from nothing but the imported
package (every CLI command builds its own graph and table; a sigma-mix pass
builds fresh tables), so every pass of a run does the same work.

Why each workload, and which layer it bypasses:

- identities-g2: ``identities --suite all`` on closed and on one-boundary
  genus 2.  The paper's verification job; exact fractions (``exactalg``) and
  torus products (``qtorus``).  Bypasses ``Cyclo`` and ``repbuild``.
- identities-mutated: ``identities --suite all --mutate`` on closed genus 2.
  Same layers used differently: residuals never cancel, dividends are larger
  and the failure report is emitted.  A change that speeds up only
  zero-testing shows here as no gain or a loss.
- rep-g2: two ``rep`` requests at p=5 and p=3 with seeded shadow parameters.
  The only workload on ``Cyclo``, ``CMatrix``, ``eval_element``,
  ``chebyshev_T`` and the intertwiner search; bypasses the symbolic fraction
  work of the suites.
- sigma-mix: a seeded stream of expressions through ``parse_expression`` on
  three graphs.  The only workload on the parser and the twisted-image cache
  of ``SigmaTable.image``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# ---------------------------------------------------------------------------
# hand-written expectations
# ---------------------------------------------------------------------------

# Identities per suite.  S1 checks Q/E commutation and the pants form once per
# internal edge (3 edges closed, 4 with one boundary); the other counts follow
# the curves each suite ranges over on these graphs.
IDENTITY_COUNTS = {
    (2, True): {"S1": 6, "S2": 4, "S3": 2, "S6": 2, "S7": 3, "S8": 2, "S9": 4, "S11": 3},
    (2, False): {"S1": 8, "S2": 2, "S3": 1, "S4": 4, "S5": 3, "S6": 2, "S7": 3, "S8": 2,
                 "S9": 4, "S11": 4},
}

# Graphs each CLI workload's commands build, as (genus, closed).
CLI_GRAPHS = {
    "identities-g2": ((2, True), (2, False)),
    "identities-mutated": ((2, True),),
    "rep-g2": ((2, True),),
}

REP_EDGES = ("a0", "a1", "c1")          # internal edges of closed genus 2
REP_PRIMES = (2, 3, 5, 7)               # a narrow range keeps the cost of a request steady
REP_GAUGE = ("1", "2", "3", "1/2", "3/2", "2/3")
UNICITY_ORBITS = 5                      # gauge shifts tried by ``rep --checks unicity``

# Catalogue curves per graph by class, each with the edges a twist along which
# changes its image: P pants curves (no twist acts; any edge is drawn),
# O one-cycle curves, T two-cycle curves, S the separating family (gamma, tau,
# taubar).  Drawing twists only along acting edges keeps the cost of a request
# a property of its template rather than of the seed.  B and A hold beta[1]
# and alpha[a0], a fixed intersecting pair whose commutator costs the same on
# every graph.
_G2C_EDGES = ("a0", "a1", "c1")
_G2B_EDGES = ("a0", "a1", "b1", "c1")
_G3C_EDGES = ("a0", "a1", "b1", "c1", "a2", "c2")
SIGMA_GRAPHS = {
    "g2c": {"genus": 2, "closed": True, "edges": _G2C_EDGES,
            "P": {f"alpha[{e}]": _G2C_EDGES for e in _G2C_EDGES},
            "A": {"alpha[a0]": _G2C_EDGES}, "B": {"beta[1]": ("a0",)},
            "O": {"beta[1]": ("a0",), "beta[2]": ("a1",)},
            "T": {},
            "S": {"gamma[1]": ("c1",), "tau[c1]": ("c1",), "taubar[c1]": ("c1",)}},
    "g2b": {"genus": 2, "closed": False, "edges": _G2B_EDGES,
            "P": {f"alpha[{e}]": _G2B_EDGES for e in _G2B_EDGES},
            "A": {"alpha[a0]": _G2B_EDGES}, "B": {"beta[1]": ("a0",)},
            "O": {"beta[1]": ("a0",)},
            "T": {"beta[2]": ("a1", "b1")},
            "S": {"gamma[1]": ("c1",), "tau[c1]": ("c1",), "taubar[c1]": ("c1",)}},
    "g3c": {"genus": 3, "closed": True, "edges": _G3C_EDGES,
            "P": {f"alpha[{e}]": _G3C_EDGES for e in _G3C_EDGES},
            "A": {"alpha[a0]": _G3C_EDGES}, "B": {"beta[1]": ("a0",)},
            "O": {"beta[1]": ("a0",), "beta[3]": ("a2",)},
            "T": {"beta[2]": ("a1", "b1")},
            "S": {"gamma[1]": ("c1",), "tau[c1]": ("c1",), "taubar[c1]": ("c1",),
                  "gamma[2]": ("c2",), "tau[c2]": ("c2",), "taubar[c2]": ("c2",)}},
}

# Request templates per graph and pass: (count, form, operands), an operand
# being (curve class, number of twists).  Within a template the curves of a
# class are used in turn, in seeded order, and twist edges and signs are
# seeded, so the latency distribution of a pass depends little on the seed.
# The counts put a block of commutators of beta[1] and a twisted alpha[a0]
# (about 1 ms) at the median and a block of g2c commutators of a
# one-cycle and a separating-family curve (about 20 ms) at the 90th
# percentile, under a tail of products of up to 0.25 s.  Squares of
# separating-family curves take about 2 s on g2b and g3c and their
# commutators 4 to 13 s: both are left out, so that a run holds many passes.
_LIGHT = (
    (5, "atom", (("P", 2),)),
    (3, "atom", (("O", 1),)),
    (2, "atom", (("S", 1),)),
    (2, "sum", (("S", 0), ("O", 0))),
    (1, "sum", (("O", 1), ("P", 0))),
    (8, "comm", (("B", 0), ("A", 2))),
    (2, "mul", (("O", 0), ("O", 1))),
    (3, "sq", (("O", 1),)),
)
SIGMA_TEMPLATES = {
    "g2c": _LIGHT + ((14, "comm", (("O", 0), ("S", 0))), (2, "sq", (("S", 0),))),
    "g2b": _LIGHT + ((1, "atom", (("T", 1),)), (1, "sq", (("T", 0),)),
                     (1, "comm", (("O", 0), ("S", 0)))),
    "g3c": _LIGHT + ((1, "atom", (("T", 1),)), (1, "sq", (("T", 0),)),
                     (1, "comm", (("O", 0), ("S", 0)))),
}


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@dataclass
class CliRequest:
    """One ``skein-torus`` command, sent through ``cli.main`` in-process."""

    argv: tuple[str, ...]
    expect: dict


@dataclass
class SigmaRequest:
    """One expression on one graph; ``operands`` are (curve name, twists)."""

    graph: str
    form: str
    operands: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    text: str = field(init=False)

    def __post_init__(self):
        atoms = [_atom_text(name, twists) for name, twists in self.operands]
        self.text = {
            "atom": "{0}",
            "mul": "{0} * {1}",
            "comm": "commA({0}, {1})",
            "sq": "{0}^2",
            "sum": "{0} + A^2*{1}",
        }[self.form].format(*atoms)


def _atom_text(name, twists) -> str:
    prefix = "".join(f"t{'-' if sign < 0 else ''}[{edge}] " for edge, sign in twists)
    return f"sigma({prefix}{name})"


def identities_g2(seed: int) -> list[CliRequest]:
    """Fixed inputs: the seed is ignored."""
    return [CliRequest(("identities", "--genus", "2", "--closed", "--suite", "all"),
                       {"graph": (2, True), "mutated": False}),
            CliRequest(("identities", "--genus", "2", "--suite", "all"),
                       {"graph": (2, False), "mutated": False})]


def identities_mutated(seed: int) -> list[CliRequest]:
    """Fixed inputs: the seed is ignored."""
    return [CliRequest(("identities", "--genus", "2", "--closed", "--suite", "all", "--mutate"),
                       {"graph": (2, True), "mutated": True})]


def rep_g2(seed: int) -> list[CliRequest]:
    """Shadow parameters x are distinct primes, so genericity holds by construction."""
    rng = random.Random(f"rep-g2:{seed}")
    out = []
    for p, checks in ((5, "shadows,irreducible"), (3, "shadows,irreducible,unicity")):
        x = dict(zip(REP_EDGES, rng.sample(REP_PRIMES, len(REP_EDGES))))
        y = {e: rng.choice(REP_GAUGE) for e in REP_EDGES}
        argv = ("rep", "--p", str(p), "--genus", "2", "--closed",
                "--x", ",".join(f"{e}={v}" for e, v in x.items()),
                "--y", ",".join(f"{e}={v}" for e, v in y.items()),
                "--checks", checks)
        out.append(CliRequest(argv, {"p": p, "x": x, "checks": checks.split(",")}))
    return out


def sigma_mix(seed: int) -> list[SigmaRequest]:
    rng = random.Random(f"sigma-mix:{seed}")
    out = []
    for key, spec in SIGMA_GRAPHS.items():
        for count, form, operands in SIGMA_TEMPLATES[key]:
            turns = [rng.sample(sorted(spec[cls]), len(spec[cls])) for cls, _n in operands]
            for i in range(count):
                drawn = []
                for (cls, n_twists), names in zip(operands, turns):
                    name = names[i % len(names)]
                    twists = tuple((rng.choice(spec[cls][name]), rng.choice((1, -1)))
                                   for _ in range(n_twists))
                    drawn.append((name, twists))
                out.append(SigmaRequest(key, form, tuple(drawn)))
    rng.shuffle(out)
    return out


GENERATORS = {
    "identities-g2": identities_g2,
    "identities-mutated": identities_mutated,
    "rep-g2": rep_g2,
    "sigma-mix": sigma_mix,
}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# set-up, sending, checking
# ---------------------------------------------------------------------------

class Session:
    """Sends one workload's requests to the imported package and checks them.

    ``setup`` builds every graph, table and cyclotomic field the workload
    uses; for sigma-mix these tables also serve as the reference side of the
    output checks.  ``begin_pass`` resets per-pass state so every pass
    starts cold.
    """

    def __init__(self, workload: str, requests: list, sk):
        self.workload = workload
        self.requests = requests
        self.sk = sk
        self.reference_tables = {}
        self.tables = {}
        self._expected = {}

    def setup(self) -> None:
        if self.workload == "sigma-mix":
            self.reference_tables = self._sigma_tables()
            return
        for genus, closed in CLI_GRAPHS[self.workload]:
            self.sk.SigmaTable(self.sk.SausageGraph(genus, closed))
        for req in self.requests:
            if "p" in req.expect:
                self.sk.CycloField(req.expect["p"])

    def begin_pass(self) -> None:
        if self.workload == "sigma-mix":
            self.tables = self._sigma_tables()

    def _sigma_tables(self) -> dict:
        return {key: self.sk.SigmaTable(self.sk.SausageGraph(spec["genus"], spec["closed"]))
                for key, spec in SIGMA_GRAPHS.items()}

    def send(self, req):
        """Send one request; returns its raw output."""
        if isinstance(req, SigmaRequest):
            table = self.tables[req.graph]
            return self.sk.cli.parse_expression(req.text, table.graph, table)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.sk.cli.main(list(req.argv))
        return rc, out.getvalue()

    def check(self, index: int, req, output) -> str | None:
        """Return None when the output is right, else what is wrong."""
        if isinstance(req, SigmaRequest):
            return self._check_sigma(index, req, output)
        rc, text = output
        try:
            payload = json.loads(text)
            if req.argv[0] == "identities":
                return _check_identities(req.expect, rc, payload)
            return _check_rep(req.expect, rc, payload)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"exit {rc}, malformed output: {exc!r}"

    def _check_sigma(self, index, req, value) -> str | None:
        if index not in self._expected:
            self._expected[index] = self._compose(req)
        if not isinstance(value, self.sk.QTElem) or not value == self._expected[index]:
            return f"sigma-mix {req.text!r} differs from the composed value"
        return None

    def _compose(self, req):
        """The request's value built from the reference table without the parser."""
        sk = self.sk
        table = self.reference_tables[req.graph]
        vals = []
        for name, twists in req.operands:
            img = table.image(table.catalogue[name])
            for edge, sign in reversed(twists):
                img = sk.twist_image(img, edge, sign, table)
            vals.append(img)
        if req.form == "atom":
            return vals[0]
        if req.form == "mul":
            return sk.qt_mul(vals[0], vals[1])
        if req.form == "sq":
            return sk.qt_mul(vals[0], vals[0])
        if req.form == "comm":
            return sk.commutator_A(vals[0], vals[1])
        return sk.qt_add(vals[0], vals[1].mul_a_power(2))


def _check_identities(expect, rc, payload) -> str | None:
    counts = IDENTITY_COUNTS[expect["graph"]]
    got = {r["suite"]: r["identities"] for r in payload}
    if list(got) != list(counts):
        return f"suites {list(got)}, expected {list(counts)}"
    for suite, n in counts.items():
        idents = got[suite]
        if len(idents) != n:
            return f"{suite}: {len(idents)} identities, expected {n}"
        failed = [i for i in idents if not i["pass"]]
        if not expect["mutated"] and failed:
            return f"{suite}: {len(failed)} identities fail on a clean run"
        if expect["mutated"]:
            if not failed:
                return f"{suite}: no identity fails under mutation"
            if any(not i["residual_terms"] for i in failed):
                return f"{suite}: a failing identity reports a zero residual"
        if any(i["pass"] and i["residual_terms"] for i in idents):
            return f"{suite}: a passing identity reports a residual"
    want_rc = 1 if expect["mutated"] else 0
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    return None


def _cyclo_rational(text: str) -> Fraction | None:
    """The rational value of a printed cyclotomic scalar '[c0, c1, ...]', if any."""
    coeffs = [Fraction(c.strip()) for c in text.strip("[]").split(",")]
    if any(coeffs[1:]):
        return None
    return coeffs[0]


def _check_rep(expect, rc, payload) -> str | None:
    p = expect["p"]
    if rc != 0:
        return f"rep p={p}: exit {rc}"
    if payload.get("dim") != p ** len(REP_EDGES):
        return f"rep p={p}: dimension {payload.get('dim')}"
    for edge, x in expect["x"].items():
        want = Fraction(x) ** (2 * p) + Fraction(x) ** (-2 * p)
        got = _cyclo_rational(payload["shadows"][f"alpha[{edge}]"])
        if got != want:
            return f"rep p={p}: shadow of alpha[{edge}] is {got}, expected {want}"
    checks = {c.get("id", c.get("suite")): c for c in payload["checks"]}
    if "shadows" in expect["checks"]:
        suite = checks.get("cshadow")
        if suite is None or not all(i["pass"] for i in suite["identities"]):
            return f"rep p={p}: shadow formulas fail"
    if "irreducible" in expect["checks"]:
        dim = checks.get("commutant_dimension", {}).get("value")
        if dim != 1:
            return f"rep p={p}: commutant dimension {dim}"
    if "unicity" in expect["checks"]:
        uni = checks.get("unicity_gauge_orbits", {})
        # "pass" also requires that the mismatched representation was rejected
        if uni.get("found") != UNICITY_ORBITS or uni.get("pass") is not True:
            return f"rep p={p}: unicity found {uni.get('found')} orbits, pass={uni.get('pass')}"
    return None
