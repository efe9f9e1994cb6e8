"""Synthetic corpus generation: determinism and planted structure."""

import pytest

from conftest import (
    message_author_map,
    pool_of_ngram,
    synth_corpus,
    window_figures,
)
from leadnet.ingest import Gender, whole_span_slice
from leadnet.synth import (
    POOLS,
    START,
    STOP_TOKENS,
    SyntheticSpec,
    generate,
    write_lexicon_tsv,
)

SMALL = SyntheticSpec(n_users=20, n_threads=40, seed=7)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        SyntheticSpec()

    @pytest.mark.parametrize("kwargs", [
        {"n_users": 0},
        {"n_threads": 0},
        {"span_days": 0},
        {"gender_prior_w": 1.5},
        {"homophily_p_ww": -0.1},
        {"comments_mean": -1.0},
        {"women_activity_uplift": 0.0},
        {"manager_latency_factor": 0.0},
        {"reply_latency_mean_s": 0.0},
        {"like_rate": 0.8, "dislike_rate": 0.3},
        {"like_rate": -0.1},
    ])
    def test_bad_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        assert generate(SMALL) == generate(SMALL)

    def test_different_seed_different_corpus(self):
        other = SyntheticSpec(n_users=20, n_threads=40, seed=8)
        assert generate(SMALL) != generate(other)


class TestShape:
    def test_thread_and_comment_ids_are_unique(self):
        corpus = synth_corpus(SMALL)
        thread_ids = [t.thread_id for t in corpus.threads]
        assert len(set(thread_ids)) == len(thread_ids) == 40
        message_ids = list(message_author_map(corpus.threads))
        assert len(set(message_ids)) == len(message_ids)

    # the quota holds over the users drawn, and a user who never posts
    # or rates appears in no log: these specs' logs show every user

    def test_exact_gender_quota(self):
        spec = SyntheticSpec(n_users=100, n_threads=400, gender_prior_w=0.24,
                             seed=3)
        corpus = synth_corpus(spec)
        assert len(corpus.users) == 100
        women = sum(1 for u in corpus.users if u.gender is Gender.female)
        assert women == 24
        assert all(u.gender is not Gender.unknown for u in corpus.users)

    def test_roles_follow_the_weight_table(self):
        spec = SyntheticSpec(n_users=400, n_threads=2000, seed=5)
        corpus = synth_corpus(spec)
        assert len(corpus.users) == 400
        consultants = sum(
            1 for u in corpus.users if u.role.value == "consultant")
        assert 0.35 <= consultants / 400 <= 0.55

    def test_threads_sorted_and_comments_after_publication(self):
        corpus = synth_corpus(SMALL)
        stamps = [t.published_at for t in corpus.threads]
        assert stamps == sorted(stamps)
        horizon = START
        for thread in corpus.threads:
            assert thread.published_at >= horizon
            previous = thread.published_at
            for comment in thread.comments:
                assert comment.created_at >= previous
                previous = comment.created_at
            # the log's comment order is its time order: parsing kept it
            ids = [c.comment_id for c in thread.comments]
            assert ids == [f"{thread.thread_id}c{k:03d}"
                           for k in range(1, len(ids) + 1)]

    def test_span_is_respected(self):
        corpus = synth_corpus(SMALL)
        last = corpus.threads[-1].published_at
        delta = last - START
        assert 0 <= delta.days < SMALL.span_days


class TestRatings:
    def test_raters_never_rate_their_own_message(self):
        corpus = synth_corpus(SyntheticSpec(n_users=10, n_threads=120, seed=2,
                                            like_rate=0.5, dislike_rate=0.3))
        authors = message_author_map(corpus.threads)
        assert corpus.ratings
        for event in corpus.ratings:
            assert event.value in (1, -1)
            assert event.rater_id != authors[event.target_message_id].user_id

    def test_single_user_corpus_has_no_ratings(self):
        corpus = synth_corpus(SyntheticSpec(n_users=1, n_threads=30, seed=2,
                                            like_rate=0.9, dislike_rate=0.1))
        assert corpus.ratings == ()

    def test_zero_rates_mean_zero_ratings(self):
        corpus = synth_corpus(SyntheticSpec(n_users=10, n_threads=50, seed=2,
                                            like_rate=0.0, dislike_rate=0.0))
        assert corpus.ratings == ()


class TestTopicsPlanted:
    def test_threads_are_tagged_with_one_pool(self):
        corpus = synth_corpus(SMALL)
        names = {p.name for p in POOLS}
        for thread in corpus.threads:
            assert len(thread.tags) == 1 and thread.tags[0] in names

    def test_texts_stay_inside_their_pool(self):
        corpus = synth_corpus(SMALL)
        vocab = {
            pool.name: {surface for s, _c, _l in pool.concepts
                        for surface in s.split()}
            for pool in POOLS
        }
        for thread in corpus.threads:
            pool = thread.tags[0]
            other = set().union(*(v for name, v in vocab.items()
                                  if name != pool)) - vocab[pool]
            for text in (thread.title, thread.description,
                         *(c.text for c in thread.comments)):
                tokens = set(text.split())
                assert not tokens & other

    def test_pool_of_ngram_classifies_members(self):
        assert pool_of_ngram("carta_di_credito") == "payments"
        assert pool_of_ngram("cloud_migration") == "cloud"
        assert pool_of_ngram("carta_cloud") is None
        assert pool_of_ngram("delle") is None
        assert pool_of_ngram("kickoff") is None


class TestLexiconFiles:
    @pytest.fixture
    def rows(self, tmp_path):
        """The rows of the lexicon.tsv that synth writes."""
        write_lexicon_tsv(tmp_path / "lexicon.tsv")
        text = (tmp_path / "lexicon.tsv").read_text(encoding="utf-8")
        return [line.split("\t") for line in text.splitlines()]

    def test_written_files_reload_to_the_generator_vocabulary(
            self, rows, synth_lexicon):
        assert rows == [[surface, concept_id, lang] for pool in POOLS
                        for surface, concept_id, lang in pool.concepts]
        assert synth_lexicon.surfaces_by_first == {
            surface: ((surface,),) for surface, _concept_id, _lang in rows}
        assert synth_lexicon.stop_tokens == {t for t, _lang in STOP_TOKENS}

    def test_written_lexicon_knows_the_planted_phrases(
            self, rows, synth_lexicon):
        concept_ids = {surface: concept_id for surface, concept_id, _ in rows}
        assert concept_ids["carta"].startswith("pay.")
        assert concept_ids["cloud"].startswith("cld.")
        assert synth_lexicon.surfaces_by_first["carta"] == (("carta",),)
        assert "delle" in synth_lexicon.stop_tokens


class TestHomophilyKnob:
    def p_ww(self, uplift):
        spec = SyntheticSpec(n_users=200, n_threads=4000, comments_mean=0.5,
                             women_activity_uplift=uplift, seed=17)
        corpus = synth_corpus(spec)
        return window_figures(corpus, whole_span_slice(corpus))[
            "homophily_p_ww", ""][0]

    def test_recipient_side_rate_matches_the_knob(self):
        assert self.p_ww(1.0) == pytest.approx(0.48, abs=0.04)

    def test_uplift_keeps_the_planted_rate(self):
        assert self.p_ww(2.0) == pytest.approx(0.48, abs=0.04)


class TestLatencyKnob:
    def test_manager_threads_answered_faster(self):
        spec = SyntheticSpec(n_users=150, n_threads=3000, seed=23,
                             manager_latency_factor=0.5)
        corpus = synth_corpus(spec)
        figures = window_figures(corpus, whole_span_slice(corpus))
        latency = "response_latency_mean_s"
        ratio = (figures[latency, "role:manager"][0] /
                 figures[latency, "role:consultant"][0])
        assert ratio == pytest.approx(0.5, rel=0.2)
