"""`tools/oracle_rates.py`'s failure counts and table, on a stub suite: no Monte Carlo runs here."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from gneva import verify

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import oracle_rates  # noqa: E402


def stub(cases, draws, rng):
    """Fails on about 30 % of generators, as a suite with a 30 % false-failure rate would."""
    assert (cases, draws) == (oracle_rates.CASES, oracle_rates.DRAWS)
    return rng.random() >= 0.3, "stub"


def test_failures_counts_the_seeds_whose_generator_fails_the_check():
    expected = sum(np.random.default_rng([777, s]).random() < 0.3 for s in range(40))
    assert 0 < expected < 40
    assert oracle_rates.failures(stub, 40) == expected


def test_table_prints_each_suite_beside_its_nominal_rate():
    lines = oracle_rates.table([("kl-mean-vs-mc", 5, 2), ("expected-stats-vs-mc", 10, 0)], 100).splitlines()
    assert lines[0].split() == ["suite", "m", "failed", "rate", "nominal"]
    assert lines[1].split() == ["kl-mean-vs-mc", "5", "2/100", "2.0%", "1.3%"]
    assert lines[2].split() == ["expected-stats-vs-mc", "10", "0/100", "0.0%", "2.7%"]


def test_main_runs_every_suite_at_m_cases_times_its_z_scores(monkeypatch, capsys):
    monkeypatch.setattr(oracle_rates, "SUITES", {"stub-vs-mc": (stub, 2)})
    assert oracle_rates.main(["--seeds", "40"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["stub-vs-mc", str(2 * oracle_rates.CASES), f"{oracle_rates.failures(stub, 40)}/40"]
    with pytest.raises(SystemExit):
        oracle_rates.main(["--seeds", "0"])


def test_suites_run_as_verify_fast_runs_them():
    # The tool's sizes and suite names against `verify.run_all`'s source, so neither drifts from the other.
    source = inspect.getsource(verify.run_all)
    assert f"n = {oracle_rates.DRAWS:_} if fast" in source and f"pairs = {oracle_rates.CASES} if fast" in source
    for name, (check, _) in oracle_rates.SUITES.items():
        assert f'("{name}", lambda rng: {check.__name__}(pairs, n, rng))' in source
