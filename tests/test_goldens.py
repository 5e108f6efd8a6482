"""Every golden output, checked by the one runner in ``goldens.py``."""

import pytest

from goldens import RUNS, check, coverage


def test_every_golden_is_pinned_and_exists():
    assert coverage() == []


@pytest.mark.parametrize("run", RUNS, ids=[run.name for run in RUNS])
def test_run_matches_its_goldens(tmp_path, run):
    failures = check(run, tmp_path)
    assert not failures, "\n".join(failures)
