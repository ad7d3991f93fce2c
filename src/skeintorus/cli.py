"""Command line front end and the expression language.

Expressions combine curve images and exact scalars:

    sigma(alpha[a0]) + sigma(beta[1]) * sigma(beta[1])
    commA(sigma(alpha[a0]), sigma(t[a0] beta[1]))
    E[a0:1, c1:-2] * ( (-1)*A^2*Q[a0]^2 + (-1)*A^-2*Q[a0]^-2 )

Curve atoms follow the catalogue grammar `alpha[<edge>]`, `beta[<i>]`,
`gamma[<i>]`, `tau[<c-edge>]`, `taubar[<c-edge>]`, with full-twist prefixes
`t[<edge>]` and `t-[<edge>]` (the prefix nearest the curve name acts first).
The canonical text form of any element parses back to an equal element.

Subcommands: ``identities`` runs suites S1..S11, ``rep`` builds a
representation and verifies the requested checks, ``sigma`` evaluates an
expression.  Exit codes: 0 all checks pass, 1 a check failed, 2 bad usage
or configuration (including an unreadable ``--config`` file and an exponent
outside the range ``exactalg.ExponentOverflow`` guards).
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from dataclasses import dataclass, replace

from .exactalg import EXP_MAX, EXP_MIN, Frac, LPoly, InversionError, ExponentOverflow
from .qtorus import QTElem, commutator_A
from .sausage import SausageGraph, CurveId
from .embed import (SigmaTable, run_identity_suite, suite_ids, suite_supported,
                    check_suite, ConfigError)
from . import repbuild


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# ASCII classes only: isdigit and isalpha also accept characters such as
# superscripts, which int() then rejects or reads as another digit.  [^\S\n]
# is any whitespace but a newline, the characters str.isspace accepts.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<punct>[\[\](),:+\-*/^=])|(?P<newline>\n)|[^\S\n]+|(?P<bad>.)",
                    re.DOTALL)

# Each level of parentheses or commA costs four Python frames (expr, term,
# factor, atom); deeper input is refused before it exhausts the stack.
MAX_NESTING = 200


@dataclass
class _Tok:
    kind: str  # name | int | punct | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    """The tokens of ``src``; every character is one column, and a newline
    starts the next line at column 1."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind is not None:
            toks.append(_Tok(kind, m.group(), line, col))
    toks.append(_Tok("end", "", line, len(src) - line_start + 1))
    return toks


class _Parser:
    """Recursive descent over the expression grammar, tied to one graph."""

    def __init__(self, src: str, graph: SausageGraph, table: SigmaTable | None = None):
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0  # enclosing parentheses and commA
        self.graph = graph
        self.table = table

    def _table_(self) -> SigmaTable:
        if self.table is None:
            self.table = SigmaTable(self.graph)
        return self.table

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # grammar -----------------------------------------------------------------

    def parse(self) -> QTElem:
        value = self.expr()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().text!r}")
        return value

    def expr(self) -> QTElem:
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        self.depth -= 1
        return value

    def term(self) -> QTElem:
        value = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            if op.text == "*":
                value = value * rhs
            else:
                try:
                    value = value * rhs.inverse()
                except InversionError:
                    raise ParseError("division by a non-invertible element",
                                     op.line, op.col) from None
        return value

    def factor(self) -> QTElem:
        # a run of unary minus signs is counted, not recursed on
        negate = False
        while self.peek().text == "-":
            self.next()
            negate = not negate
        value = self.atom()
        while self.peek().text == "^":
            op = self.next()
            sign = 1
            if self.peek().text == "-":
                self.next()
                sign = -1
            t = self.next()
            if t.kind != "int":
                raise ParseError("exponent must be an integer", t.line, t.col)
            n = sign * int(t.text)
            try:
                value = value ** n if n >= 0 else value.inverse() ** (-n)
            except InversionError:
                raise ParseError("negative power of a non-invertible element",
                                 op.line, op.col) from None
            except ExponentOverflow as exc:
                raise ParseError(f"exponent of {exc.name} is outside [{EXP_MIN}, {EXP_MAX}] "
                                 f"in the power ^{n}", t.line, t.col) from None
        return -value if negate else value

    def atom(self) -> QTElem:
        t = self.peek()
        if t.text == "(":
            self.next()
            value = self.expr()
            self.expect(")")
            return value
        if t.kind == "int":
            self.next()
            return QTElem.scalar(self.graph, Frac.from_int(self.graph.ctx, int(t.text)))
        if t.kind == "name":
            if t.text == "A":
                self.next()
                return QTElem.scalar(self.graph,
                                     Frac.from_poly(LPoly.a_power(self.graph.ctx, 1)))
            if t.text in ("Q", "C"):
                self.next()
                self.expect("[")
                name = self.bracket_name()
                self.expect("]")
                var = f"{t.text}[{name}]"
                if var not in self.graph.ctx.index:
                    raise ParseError(f"unknown variable {var}", t.line, t.col)
                return QTElem.scalar(self.graph,
                                     Frac.from_poly(LPoly.monomial(self.graph.ctx, {var: 1})))
            if t.text == "E":
                return self.e_atom()
            if t.text == "sigma":
                self.next()
                self.expect("(")
                curve = self.curve()
                self.expect(")")
                return self._table_().image(curve)
            if t.text == "commA":
                self.next()
                self.expect("(")
                x = self.expr()
                self.expect(",")
                y = self.expr()
                self.expect(")")
                return commutator_A(x, y)
        self.fail(f"unexpected token {t.text!r}")

    def bracket_name(self) -> str:
        t = self.next()
        if t.kind not in ("name", "int"):
            raise ParseError("expected an identifier", t.line, t.col)
        return t.text

    def e_atom(self) -> QTElem:
        t0 = self.next()  # E
        self.expect("[")
        exps: dict[str, int] = {}
        while self.peek().text != "]":
            edge = self.bracket_name()
            if edge not in self.graph.internal_edges:
                raise ParseError(f"unknown edge {edge!r}", t0.line, t0.col)
            self.expect(":")
            sign = 1
            if self.peek().text == "-":
                self.next()
                sign = -1
            t = self.next()
            if t.kind != "int":
                raise ParseError("expected an integer exponent", t.line, t.col)
            exps[edge] = exps.get(edge, 0) + sign * int(t.text)
            if self.peek().text == ",":
                self.next()
        self.expect("]")
        return QTElem.e_monomial(self.graph, exps)

    def curve(self) -> CurveId:
        twists: list[tuple[str, int]] = []
        while self.peek().text == "t":
            save = self.pos
            self.next()
            sign = 1
            if self.peek().text == "-":
                self.next()
                sign = -1
            if self.peek().text != "[":
                self.pos = save
                break
            self.expect("[")
            edge = self.bracket_name()
            self.expect("]")
            if edge not in self.graph.internal_edges:
                self.fail(f"unknown edge {edge!r}")
            twists.append((edge, sign))
        t = self.next()
        if t.kind != "name" or t.text not in ("alpha", "beta", "gamma", "tau", "taubar"):
            raise ParseError(f"unknown curve kind {t.text!r}", t.line, t.col)
        self.expect("[")
        arg = self.bracket_name()
        self.expect("]")
        name = f"{t.text}[{arg}]"
        try:
            base = self.graph.curve_by_name(name)
        except KeyError:
            raise ParseError(f"unknown curve {name!r}", t.line, t.col) from None
        for edge, sign in reversed(twists):
            base = base.twisted(edge, sign)
        return base


def parse_expression(src: str, g: SausageGraph, table: SigmaTable | None = None) -> QTElem:
    """Parse and evaluate an expression against a graph's sigma table."""
    return _Parser(src, g, table).parse()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _build_graph_checked(command: str, genus: int | None, closed: bool) -> SausageGraph:
    if genus is None:
        raise ConfigError(f"{command}: --genus is required")
    try:
        return SausageGraph(genus, closed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_identities(args) -> int:
    cfg = _load_config(args, ("genus", "closed", "suite", "mutate"))
    genus = cfg.get("genus", args.genus)
    closed = cfg.get("closed", args.closed)
    suites = cfg.get("suite", args.suite)
    mutate = cfg.get("mutate", args.mutate)
    graph = _build_graph_checked("identities", genus, closed)
    if suites == "all":
        chosen = [s for s in suite_ids() if suite_supported(s, graph, mutate=mutate)]
    else:
        # a suite named twice runs once, as a check named twice in rep does
        chosen = list(dict.fromkeys(s.strip() for s in suites.split(",") if s.strip()))
        if not chosen:
            raise ConfigError("identities: the suite list is empty")
        for s in chosen:
            if s not in suite_ids():
                raise ConfigError(f"identities: unknown suite {s}")
            if not suite_supported(s, graph):
                raise ConfigError(f"identities: suite {s} needs a different graph "
                                  f"(genus {genus}, {'closed' if closed else 'one boundary'})")
            check_suite(s, graph, mutate)  # a missing probe, before any suite runs
    table = SigmaTable(graph)
    reports = [run_identity_suite(s, graph, mutate=mutate, table=table) for s in chosen]
    reports.sort(key=lambda r: int(r.suite[1:]))
    _emit_report([r.to_json() for r in reports], args.json)
    ok = all(r.all_pass for r in reports)
    for r in reports:
        n_fail = sum(1 for i in r.identities if not i.passed)
        status = "pass" if n_fail == 0 else f"FAIL ({n_fail} identities)"
        print(f"{r.suite}: {status} [{r.wall_time_ms} ms]", file=sys.stderr)
    return 0 if ok else 1


def _emit_report(payload, path: str | None) -> None:
    """Print the JSON report, and write it to ``path`` too when one is given."""
    out = json.dumps(payload, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(out + "\n")
    print(out)


def _parse_assignments(text: str, flag: str) -> dict[str, str]:
    """edge=value pairs split on the commas outside [...], so a value may be
    a coefficient list [c0,c1,...].  An edge named twice is refused."""
    out = {}
    for piece in re.split(r",(?![^\[]*\])", text):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad assignment {piece!r} (expected edge=value)")
        k, v = (t.strip() for t in piece.split("=", 1))
        if k in out:
            raise ConfigError(f"rep: --{flag} assigns to {k!r} twice")
        out[k] = v
    return out


# the JSON type of each --config key that stands for a typed flag
_CONFIG_TYPES = {"genus": (int, "an integer"), "closed": (bool, "true or false"),
                 "suite": (str, "a string"), "p": (int, "an integer"),
                 "checks": (str, "a string"), "mutate": (bool, "true or false")}


def _load_config(args, keys: tuple[str, ...]) -> dict:
    """The --config JSON object: a key the command does not read is refused,
    and a typed flag key must have its flag's type."""
    if not args.config:
        return {}
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except RecursionError:
            raise ConfigError(f"{args.config}: the JSON is nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config}: the config must be a JSON object")
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"{args.config}: unknown key {key!r} "
                              f"(known: {', '.join(keys)})")
        kind, what = _CONFIG_TYPES.get(key, (None, ""))
        # type(), not isinstance(): true is an int to Python, but no genus
        if kind and type(cfg[key]) is not kind:
            raise ConfigError(f"{args.config}: {key!r} must be {what}, "
                              f"not {json.dumps(cfg[key])}")
    return cfg


_REP_CHECKS = ("shadows", "irreducible", "unicity")


def cmd_rep(args) -> int:
    cfg = _load_config(args, ("p", "genus", "closed", "checks", "x", "y", "boundary"))
    p = cfg.get("p", args.p)
    genus = cfg.get("genus", args.genus)
    closed = cfg.get("closed", args.closed)
    graph = _build_graph_checked("rep", genus, closed)
    checks = [c.strip() for c in cfg.get("checks", args.checks).split(",") if c.strip()]
    if not checks:
        raise ConfigError("rep: the check list is empty")
    for c in checks:
        if c not in _REP_CHECKS:
            raise ConfigError(f"rep: unknown check {c!r} (choose from {', '.join(_REP_CHECKS)})")
    defaults = [2, 5, 3, 7, 11, 13, 17, 19, 23, 29]
    x_raw = cfg.get("x", _parse_assignments(args.x or "", "x"))
    y_raw = cfg.get("y", _parse_assignments(args.y or "", "y"))
    for flag, raw in (("x", x_raw), ("y", y_raw)):
        if not isinstance(raw, dict):
            raise ConfigError(f"rep: {flag} must map edge names to scalars")
    boundary = cfg.get("boundary", args.boundary)
    # a config value may be a JSON number or list; its text is the scalar
    x = {**{e: defaults[i % len(defaults)] for i, e in enumerate(graph.internal_edges)},
         **{e: str(v) for e, v in x_raw.items()}}
    y = {e: str(v) for e, v in y_raw.items()}
    try:
        rep = repbuild.build_rep(graph, p, x, y=y,
                                 boundary=None if boundary is None else str(boundary))
    except ValueError as exc:
        # an edge key, boundary, dimension, --p, scalar literal or genericity
        # error: not a failed check
        raise ConfigError(f"rep: {exc}") from None
    except ZeroDivisionError:
        raise ConfigError("rep: zero denominator in a scalar literal") from None
    table = SigmaTable(graph)

    results = {**rep.to_json(), "checks": []}
    ok = True
    if "shadows" in checks:
        report = repbuild.verify_cshadow(rep, table)
        results["checks"].append(report.to_json())
        ok = ok and report.all_pass
        shadows = {}
        for name in sorted(table.catalogue):
            shadows[name] = str(repbuild.classical_shadow(table.catalogue[name], rep, table))
        results["shadows"] = shadows
    if "irreducible" in checks:
        t0 = time.monotonic()
        dim = repbuild.irreducibility_commutant(rep, table)
        results["checks"].append({"id": "commutant_dimension", "value": dim, "pass": dim == 1,
                                  "wall_time_ms": int(1000 * (time.monotonic() - t0))})
        ok = ok and dim == 1
    if "unicity" in checks:
        t0 = time.monotonic()
        rng = random.Random(20260808)
        found = 0
        for _ in range(5):
            j = {e: rng.randrange(p) for e in graph.internal_edges}
            m = {e: rng.randrange(p) for e in graph.internal_edges}
            other = repbuild.gauge_shift(rep, j, m)
            if repbuild.find_intertwiner(rep, other, table) is not None:
                found += 1
        e0 = graph.internal_edges[0]
        mismatched = replace(rep, y={**rep.y, e0: rep.y[e0] * rep.field.from_rational(2)})
        none_found = repbuild.find_intertwiner(rep, mismatched, table) is None
        results["checks"].append({"id": "unicity_gauge_orbits", "found": found,
                                  "pass": found == 5 and none_found,
                                  "wall_time_ms": int(1000 * (time.monotonic() - t0))})
        ok = ok and found == 5 and none_found
    _emit_report(results, args.json)
    return 0 if ok else 1


def cmd_sigma(args) -> int:
    graph = _build_graph_checked("sigma", args.genus, args.closed)
    value = parse_expression(args.expr, graph)
    if args.json:
        print(json.dumps(value.to_json(), indent=2))
    else:
        print(str(value))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose own usage errors (a missing flag value, an
    unknown flag, no subcommand) raise ConfigError, so they print one line
    like every other usage error.  Subparsers share the class."""

    def error(self, message):
        command = self.prog.partition(" ")[2]
        raise ConfigError(f"{command}: {message}" if command else message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="skein-torus",
        description="exact skein-algebra identities and root-of-unity representations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run closed-form identity suites")
    p_id.add_argument("--genus", type=int, default=None)
    p_id.add_argument("--closed", action="store_true")
    p_id.add_argument("--suite", default="all", help="comma list S1..S11, or 'all'")
    p_id.add_argument("--json", default=None, help="write the report to a file")
    p_id.add_argument("--config", default=None, help="JSON config mirroring the flags")
    p_id.add_argument("--mutate", action="store_true",
                      help="inject an A->A^2 perturbation (suites must fail)")
    p_id.set_defaults(func=cmd_identities)

    p_rep = sub.add_parser("rep", help="build a representation and verify checks")
    p_rep.add_argument("--p", type=int, default=3)
    p_rep.add_argument("--genus", type=int, default=None)
    p_rep.add_argument("--closed", action="store_true")
    p_rep.add_argument("--x", default=None, help="edge=value list, e.g. a0=2,a1=5,c1=3")
    p_rep.add_argument("--y", default=None, help="edge=value list of gauge scalars")
    p_rep.add_argument("--boundary", default=None)
    p_rep.add_argument("--checks", default="shadows,irreducible,unicity")
    p_rep.add_argument("--json", default=None)
    p_rep.add_argument("--config", default=None, help="JSON representation config file")
    p_rep.set_defaults(func=cmd_rep)

    p_sig = sub.add_parser("sigma", help="evaluate an expression")
    p_sig.add_argument("--genus", type=int, required=True)
    p_sig.add_argument("--closed", action="store_true")
    p_sig.add_argument("--expr", required=True)
    p_sig.add_argument("--json", action="store_true")
    p_sig.set_defaults(func=cmd_sigma)

    # exact integers have any length: lift the int <-> str digit limit
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ParseError, OSError, UnicodeDecodeError, json.JSONDecodeError,
            ExponentOverflow) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    raise SystemExit(main())
