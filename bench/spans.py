"""Span tracing around the public entry points of the skeintorus modules.

The tracer patches functions and methods from outside the package, records
one span per call (name, start, end, parent, request id) in memory, and puts
the original objects back on exit, so an untraced run measures unwrapped
code.  Counts that a span alone cannot give (exact-division hits, dividend
sizes, term products) are recorded by the same wrappers.  Calls are assumed
to come from one thread: spans nest through a single stack.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path).  A function is patched in every
# skeintorus module that imported it by name; a method is patched on its class.
TARGETS = (
    ("exactalg.exact_div", "skeintorus.exactalg", "LPoly.exact_div"),
    ("exactalg.lpoly_mul", "skeintorus.exactalg", "LPoly.__mul__"),
    ("exactalg.frac_add", "skeintorus.exactalg", "Frac.__add__"),
    ("exactalg.frac_mul", "skeintorus.exactalg", "Frac.__mul__"),
    ("exactalg.frac_shift", "skeintorus.exactalg", "Frac.shift"),
    ("exactalg.cyclo_mul", "skeintorus.exactalg", "Cyclo.__mul__"),
    ("exactalg.cyclo_inv", "skeintorus.exactalg", "Cyclo.inv"),
    ("exactalg.cyclo_field", "skeintorus.exactalg", "CycloField.__init__"),
    ("qtorus.qt_mul", "skeintorus.qtorus", "QTElem.__mul__"),
    ("qtorus.a0_membership", "skeintorus.qtorus", "a0_membership"),
    ("qtorus.automorphism_tau_c", "skeintorus.qtorus", "automorphism_tau_c"),
    ("sausage.graph", "skeintorus.sausage", "SausageGraph.__init__"),
    ("sausage.curve_catalogue", "skeintorus.sausage", "SausageGraph.curve_catalogue"),
    ("sausage.u_den_table", "skeintorus.sausage", "SausageGraph.u_den_table"),
    ("embed.sigma_table", "skeintorus.embed", "SigmaTable.__init__"),
    ("embed.image", "skeintorus.embed", "SigmaTable.image"),
    ("embed.twist_image", "skeintorus.embed", "twist_image"),
    ("embed.identity_suite", "skeintorus.embed", "run_identity_suite"),
    ("repbuild.build_rep", "skeintorus.repbuild", "build_rep"),
    ("repbuild.eval_element", "skeintorus.repbuild", "eval_element"),
    ("repbuild.cmatrix_mul", "skeintorus.repbuild", "CMatrix.__mul__"),
    ("repbuild.chebyshev_T", "skeintorus.repbuild", "chebyshev_T"),
    ("repbuild.verify_cshadow", "skeintorus.repbuild", "verify_cshadow"),
    ("repbuild.commutant", "skeintorus.repbuild", "irreducibility_commutant"),
    ("repbuild.find_intertwiner", "skeintorus.repbuild", "find_intertwiner"),
    ("cli.main", "skeintorus.cli", "main"),
    ("cli.parse", "skeintorus.cli", "parse_expression"),
)

MODULES = ("exactalg", "qtorus", "sausage", "embed", "repbuild", "cli")


def _count_exact_div(counts, args, result):
    counts["exactalg.exact_div.dividend_terms"] += len(args[0].terms)
    if result is not None:
        counts["exactalg.exact_div.hits"] += 1


def _count_lpoly_mul(counts, args, result):
    counts["exactalg.lpoly_mul.term_products"] += len(args[0].terms) * len(args[1].terms)


def _count_qt_mul(counts, args, result):
    counts["qtorus.qt_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


COUNTERS = {
    "exactalg.exact_div": _count_exact_div,
    "exactalg.lpoly_mul": _count_lpoly_mul,
    "qtorus.qt_mul": _count_qt_mul,
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager that wraps every target for the duration of a block.

    ``spans`` holds tuples (name index, start, end, parent index, request id)
    in call order; a parent index of -1 marks a root span.  Set ``request``
    before each request so its spans carry the id.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, tracer.request)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "skeintorus" or n.startswith("skeintorus.")]
        try:
            for name, module_name, path in TARGETS:
                owner, attr = _resolve(module_name, path)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    sites = [(owner, attr)]
                else:
                    original = getattr(owner, attr)
                    sites = [(mod, key) for mod in modules
                             for key, value in vars(mod).items() if value is original]
                wrapped = self._wrap(name, original)
                for site, key in sites:
                    self._restore.append((site, key, original))
                    setattr(site, key, wrapped)
        except BaseException:
            self._unpatch()
            raise
        return self

    def _unpatch(self):
        while self._restore:
            site, key, original = self._restore.pop()
            setattr(site, key, original)

    def __exit__(self, *exc):
        self._unpatch()
        if self._stack:
            raise RuntimeError("tracer closed with open spans")
        return False

    def records(self) -> list[tuple[str, float, float, int, int]]:
        """Spans as (name, start, end, parent, request) in call order."""
        return [(self.names[n], s, e, p, r) for n, s, e, p, r in self.spans]

    def write(self, path) -> None:
        """Write the spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, (name, s, e, p, r) in enumerate(self.records()):
                fh.write(f"{i}\t{name}\t{s!r}\t{e!r}\t{p}\t{r}\n")


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the part its children cover.

    ``spans`` is a sequence of (name, start, end, parent, request); children
    are clipped to their parent's interval and overlapping children are
    counted once.
    """
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_name, start, end, _parent, _req) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics derived from spans and boundary counts.

    Every name the benchmark reports is present, zero when the layer was not
    entered.  An ``embed.image`` call is a cache hit when it made no
    ``embed.twist_image`` call.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    twisting = set()
    for sp, st in zip(spans, selfs):
        name, start, end, parent = sp[0], sp[1], sp[2], sp[3]
        calls[name] += 1
        self_s[name] += st
        total_s[name] += end - start
        if name == "embed.twist_image" and parent >= 0 and spans[parent][0] == "embed.image":
            twisting.add(parent)
    m: dict[str, float] = {}
    for name in ("exactalg.exact_div", "exactalg.lpoly_mul", "exactalg.frac_add",
                 "exactalg.frac_mul", "exactalg.frac_shift", "exactalg.cyclo_mul",
                 "exactalg.cyclo_inv", "qtorus.qt_mul", "qtorus.a0_membership",
                 "embed.twist_image", "repbuild.eval_element", "repbuild.cmatrix_mul",
                 "repbuild.chebyshev_T", "repbuild.find_intertwiner", "cli.parse"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    div_calls = calls["exactalg.exact_div"]
    hits = counts.get("exactalg.exact_div.hits", 0)
    dividend_terms = counts.get("exactalg.exact_div.dividend_terms", 0)
    m["exactalg.exact_div.hits"] = hits
    m["exactalg.exact_div.hit_ratio"] = hits / div_calls if div_calls else 0.0
    m["exactalg.exact_div.dividend_terms"] = dividend_terms / div_calls if div_calls else 0.0
    m["exactalg.lpoly_mul.term_products"] = counts.get("exactalg.lpoly_mul.term_products", 0)
    m["qtorus.qt_mul.term_pairs"] = counts.get("qtorus.qt_mul.term_pairs", 0)
    m["embed.sigma_table.build_s"] = total_s["embed.sigma_table"]
    image_calls = calls["embed.image"]
    m["embed.image.calls"] = image_calls
    m["embed.image.hit_ratio"] = ((image_calls - len(twisting)) / image_calls
                                  if image_calls else 0.0)
    m["repbuild.verify_cshadow.self_s"] = self_s["repbuild.verify_cshadow"]
    m["repbuild.commutant.self_s"] = self_s["repbuild.commutant"]
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in self_s.items()
                                    if k.startswith(module + "."))
    return m
