"""Table 1: pilot scans and topology-based selection coverage."""

from repro.cloud.regions import PAPER_TABLE1_REGIONS
from repro.experiments import table1


def test_table1_coverage(benchmark, cache, emit):
    result = benchmark.pedantic(table1.run, args=(cache,),
                                rounds=1, iterations=1)
    emit("table1", table1.render(result))

    rows = result.by_region()
    assert set(rows) == set(PAPER_TABLE1_REGIONS)
    for row in result.rows:
        # Shape checks against the paper's bands (substrate-scaled).
        assert row.n_interdomain_links > 100
        assert row.n_links_traversed <= row.n_interdomain_links
        assert 0 < row.n_links_covered <= row.n_links_traversed
        assert 0.0 < row.coverage <= 1.0
