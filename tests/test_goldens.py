"""Every golden output, checked by the one runner in ``goldens.py``; and the
runs that README lists to reproduce the paper, each a run of that list."""

import pytest

from goldens import ROOT, RUNS, check, coverage


def test_every_golden_is_pinned_and_exists():
    assert coverage() == []


def test_readme_reproduces_the_paper_with_pinned_runs():
    # The fenced block of README's "Reproducing the paper": each line is the
    # argv of a run.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Reproducing the paper\n", 1)[1].split("```\n")[1]
    lines = [line.split() for line in block.splitlines()]
    argvs = [run.argv.split() for run in RUNS]
    assert lines
    assert [line for line in lines if line not in argvs] == []


def test_missing_golden_names_the_file_to_copy(tmp_path):
    run = RUNS[0]._replace(pins="no_such_golden.csv")
    assert check(run, tmp_path) == [
        f"{run.name}: no_such_golden.csv: no such golden; to make it, copy {tmp_path / 'stdout'}"]


@pytest.mark.parametrize("run", RUNS, ids=[run.name for run in RUNS])
def test_run_matches_its_goldens(tmp_path, run):
    failures = check(run, tmp_path)
    assert not failures, "\n".join(failures)
