"""Count how often each Monte-Carlo suite of `gneva verify` fails when reseeded, beside its nominal rate.

    PYTHONPATH=src python tools/oracle_rates.py --seeds 100

Each of the four `*-vs-mc` suites below passes only if every one of its m
z-scores is under 3, so a correct closed form fails it with probability
about 1 - 0.9973^m (m independent z-scores at 3 standard errors). The tool
runs each suite at the sizes of `gneva verify --fast` on
`default_rng([777, s])` for s = 0 .. N - 1 and prints, per suite, m, the
failures, their rate and the nominal rate. A suite failing well above its
nominal rate has a standard error that is too small. A change to a suite's
draws, cases or seed reruns the tool and records the figures.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from gneva import verify

# The sizes of `gneva verify --fast` (`verify.run_all`): cases or pairs per suite, draws per case.
CASES = 5
DRAWS = 100_000
P_WITHIN_3_SE = math.erf(3.0 / math.sqrt(2.0))  # 0.9973
SUITES = {  # name: (check, z-scores per case)
    "kl-mean-vs-mc": (verify.check_kl_mean_vs_mc, 1),
    "kl-wishart-vs-mc": (verify.check_kl_wishart_vs_mc, 1),
    "expected-stats-vs-mc": (verify.check_expectations_vs_mc, 2),
    "prior-evidence-vs-mc": (verify.check_prior_evidence_vs_mc, 1),
}


def failures(check, seeds: int) -> int:
    """How many of the generators `default_rng([777, s])`, s = 0 .. seeds - 1, make `check(CASES, DRAWS, rng)` fail."""
    return sum(not check(CASES, DRAWS, np.random.default_rng([777, s]))[0] for s in range(seeds))


def table(rows, seeds: int) -> str:
    """One line per `(suite, m, failures)` row: m, failures of `seeds`, their rate and 1 - 0.9973^m."""
    lines = [f"{'suite':<22} {'m':>3} {'failed':>9} {'rate':>7} {'nominal':>8}"]
    for name, m, failed in rows:
        rate, nominal = 100.0 * failed / seeds, 100.0 * (1.0 - P_WITHIN_3_SE**m)
        lines.append(f"{name:<22} {m:>3} {f'{failed}/{seeds}':>9} {rate:6.1f}% {nominal:7.1f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, default=100, help="generators per suite (default 100)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    rows = [(name, per_case * CASES, failures(check, args.seeds)) for name, (check, per_case) in SUITES.items()]
    print(table(rows, args.seeds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
