"""Unit tests for the SSEARCH database-search driver."""

from repro.align.smith_waterman import sw_score
from repro.align.ssearch import SsearchOptions, format_report, search


class TestSearchDriver:
    def test_scores_match_pairwise(self, query, tiny_database):
        result = search(query, tiny_database)
        for hit in result.hits:
            subject = tiny_database.get(hit.subject_id)
            assert hit.score == sw_score(query, subject)

    def test_all_sequences_scored(self, query, tiny_database):
        result = search(query, tiny_database)
        assert result.sequences_searched == len(tiny_database)
        assert len(result.hits) == len(tiny_database)

    def test_hits_sorted_descending(self, query, tiny_database):
        result = search(query, tiny_database)
        scores = [hit.score for hit in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_ties_broken_by_database_order(self, query, tiny_database):
        result = search(query, tiny_database)
        for first, second in zip(result.hits, result.hits[1:]):
            if first.score == second.score:
                assert first.subject_index < second.subject_index

    def test_best_count_limits_report(self, query, tiny_database):
        result = search(query, tiny_database, SsearchOptions(best_count=2))
        assert len(result.hits) == 2

    def test_residues_searched(self, query, tiny_database):
        result = search(query, tiny_database)
        assert result.residues_searched == tiny_database.residue_count

    def test_alternative_scorer_gives_same_ranking(
        self, short_query, tiny_database
    ):
        swat = search(short_query, tiny_database)
        plain = search(short_query, tiny_database, scorer=sw_score)
        assert [h.subject_id for h in swat.hits] == [
            h.subject_id for h in plain.hits
        ]
        assert [h.score for h in swat.hits] == [h.score for h in plain.hits]


class TestReport:
    def test_report_mentions_query_and_db(self, query, tiny_database):
        result = search(query, tiny_database)
        report = format_report(result)
        assert result.query_id in report
        assert tiny_database.name in report

    def test_histogram_toggle(self, query, tiny_database):
        result = search(query, tiny_database)
        with_hist = format_report(result, SsearchOptions(show_histogram=True))
        without = format_report(result, SsearchOptions(show_histogram=False))
        assert "histogram" in with_hist
        assert "histogram" not in without
