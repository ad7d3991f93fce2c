"""Mechanical verification of the closed-form identities.

Every generator-curve image satisfies a web of exact identities: lift
formulas expressing E-monomials through twisted curves, product identities,
and the vanishing commutator families that make the edge operators commute.
The suites check all of them with zero tolerance and report full residuals
on failure.
"""

import time

from skeintorus import SausageGraph, SigmaTable, run_identity_suite, suite_ids, suite_supported

# small graphs cover every local configuration except the handle-adjacent
# separating edge, which first appears at genus 3
failed = []
for genus, closed in [(1, False), (2, True), (2, False), (3, True)]:
    g = SausageGraph(genus, closed)
    table = SigmaTable(g)
    label = "closed" if closed else "one boundary"
    print(f"\n=== genus {genus}, {label} ===")
    for suite in suite_ids():
        if not suite_supported(suite, g):
            continue
        t0 = time.monotonic()
        report = run_identity_suite(suite, table)
        status = "pass" if report.all_pass else "FAIL"
        if not report.all_pass:
            failed.append((genus, closed, suite))
        print(f"  {suite:>4}: {status:4} ({len(report.identities):2d} identities, "
              f"{time.monotonic() - t0:5.1f}s)")

# a deliberately corrupted table must fail loudly: replace A by A^2 inside a
# single stored coefficient and watch the residual become nonzero
report = run_identity_suite("S6", SigmaTable(SausageGraph(2, True)), mutate=True)
bad = [r for r in report.identities if not r.passed]
print(f"\nmutated S6 fails {len(bad)}/{len(report.identities)} identities;")
print("first residual has", len(bad[0].residual.terms), "torus terms")
if failed or not bad:
    raise SystemExit(f"unexpected suite results: failed {failed}, mutated S6 failures {len(bad)}")
