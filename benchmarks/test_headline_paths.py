"""§V-B path headline: +8.35%-36.84% more paths within 24 hours.

Reports the per-project final path increase of Peach* over Peach and the
cross-project average (the paper reports an average of +27.35%).  Shares
the campaign runs of the speedup benchmark (``benchmarks.conftest.headline``)
when both are executed in one session.
"""

from __future__ import annotations

from benchmarks.conftest import CLAIMS_ENABLED, headline, print_block


def test_final_path_increase(benchmark):
    report = benchmark.pedantic(headline, rounds=1, iterations=1)
    rows = "\n".join(
        f"  {s.target_name:<13} {s.peach_final_paths:7.1f} -> "
        f"{s.star_final_paths:7.1f}  ({s.path_increase_pct:+6.2f}%)"
        for s in report.summaries)
    print_block(
        "Final paths at 24h (paper: +8.35%..+36.84%, avg +27.35%)",
        rows + f"\n  average: {report.average_increase_pct:+.2f}%")
    # shape: the aggregate favours Peach* (needs a near-full budget)
    star = sum(s.star_final_paths for s in report.summaries)
    peach = sum(s.peach_final_paths for s in report.summaries)
    if CLAIMS_ENABLED:
        assert star > peach
