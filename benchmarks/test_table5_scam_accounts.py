"""Table 5 — scam accounts and posts per platform.

Paper: 3,769 scam accounts and 18,792 scam posts; YouTube has the most
scam accounts (1,661), X the most scam posts (6,988).  This bench times
the full Section-6 NLP pipeline (language filter -> embeddings ->
clustering -> keywords -> vetting).
"""

from benchmarks.conftest import BENCH_SCALE, record_report
from repro.analysis import ScamPostAnalysis
from repro.core.reports import render_table5
from repro.synthetic import calibration as cal


def test_table5_scam_accounts(benchmark, bench_dataset, bench_scam_report):
    # Time one full pipeline run; assertions use the shared report.
    benchmark.pedantic(
        lambda: ScamPostAnalysis().run(bench_dataset),
        rounds=1, iterations=1,
    )
    report = bench_scam_report
    record_report("Table 5", render_table5(report, BENCH_SCALE))

    accounts = {p: v[0] for p, v in report.table5.items()}
    posts = {p: v[1] for p, v in report.table5.items()}
    assert max(accounts, key=accounts.get) == "YouTube"
    assert max(posts, key=posts.get) == "X"
    expected_posts = cal.TOTAL_SCAM_POSTS * BENCH_SCALE
    assert abs(report.total_scam_posts - expected_posts) / expected_posts < 0.25
    expected_accounts = cal.TOTAL_SCAM_ACCOUNTS * BENCH_SCALE
    assert abs(report.total_scam_accounts - expected_accounts) / expected_accounts < 0.25
