"""Shared test configuration: prints one verdict line per acceptance criterion."""

import re

CRITERIA = {
    1: "grid search agrees with closed-form optimal quantities",
    2: "finite-difference gradients match marginal value formulas",
    3: "closed-form expected revenue matches numeric quadrature",
    4: "single-hour scenario settles to the known schedules and payments",
    5: "random day simulations reconcile ledger totals and sum to zero",
    6: "demand curves shift outward as the over-generation penalty grows",
    7: "profit sweep is monotone in price ratio with correct endpoints",
    8: "sampled schedule-shift payoff mean is consistent with the closed form",
    9: "enumerated variance is exact and the risk ordering holds",
    10: "quantile inversion, density normalization, and mean preservation",
    11: "cover cost falls with offered capacity and rises with forecast variance",
}

_CRITERION_RE = re.compile(r"test_criterion_(\d\d)")
_OUTCOMES = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if match is None:
        return
    num = int(match.group(1))
    if report.when == "call":
        _OUTCOMES[num] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        _OUTCOMES[num] = "FAIL"
    elif report.when == "setup" and report.skipped:
        _OUTCOMES.setdefault(num, "SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        verdict = _OUTCOMES.get(num, "NOT RUN")
        terminalreporter.write_line("criterion %02d [%s] %s" % (num, verdict, CRITERIA[num]))
