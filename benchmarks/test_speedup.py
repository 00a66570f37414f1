"""§V-B speed headline: Peach* reaches Peach's coverage at 1.2X-25X speed.

For each project, find the simulated time at which Peach* first matched
the path coverage Peach ended the 24-hour budget with, and report the
ratio — the paper's "achieves the same code coverage at the speed of
1.2X-25X (an average of 5.7X)".
"""

from __future__ import annotations

from benchmarks.conftest import headline, print_block


def test_speedup_to_equal_coverage(benchmark):
    report = benchmark.pedantic(headline, rounds=1, iterations=1)
    print_block(
        "Speed to equal coverage (paper: 1.2X-25X, avg 5.7X)",
        report.render())
    speeds = [s.speedup for s in report.summaries if s.speedup is not None]
    assert speeds, "Peach* never matched baseline coverage on any target"
    # shape: on at least half the projects Peach* matches the baseline's
    # final coverage before the budget ends (speedup > 1X)
    ahead = sum(1 for s in speeds if s > 1.0)
    assert ahead >= len(speeds) / 2
