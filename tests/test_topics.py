"""Concept extraction, clique topics, merging and stream chaining."""

import collections
import dataclasses
import io
import json
import random
import re

import pytest

import oracles
from conftest import make_corpus
from leadnet.ingest import IngestError
from leadnet.multiplex import window_events
from leadnet.topics import (
    MAX_NGRAM,
    ConceptLexicon,
    Topic,
    TopicConfig,
    _concept_grams,
    bron_kerbosch,
    chain_streams,
    cooccurrence_graph,
    cosine,
    load_lexicon,
    merge_vertical,
    thread_grams,
    tokenize,
    topic_network,
    topics_in_window,
    write_topics_json,
)

LEX = ConceptLexicon(
    entries={
        ("analisi",): "c.analysis",
        ("performance",): "c.performance",
        ("digital",): "c.digital",
        ("marketing",): "c.marketing",
        ("data", "lake"): "c.datalake",
        ("data",): "c.data",
    },
    stop_tokens=frozenset({"delle", "di", "del", "the", "of"}),
)


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Analisi, delle PERFORMANCE!") == \
            ["analisi", "delle", "performance"]

    def test_keeps_accented_letters(self):
        assert tokenize("perché no?") == ["perché", "no"]


class TestLexiconLoading:
    def test_tsv_with_languages_and_comments(self):
        lexicon = load_lexicon(
            io.StringIO("# comment\n"
                        "analisi\tc.analysis\tit\n"
                        "data lake\tc.datalake\ten\n"),
            io.StringIO("delle\tit\n# x\nthe\n"),
        )
        assert lexicon.entries[("analisi",)] == "c.analysis"
        assert lexicon.entries[("data", "lake")] == "c.datalake"
        assert lexicon.stop_tokens == {"delle", "the"}

    def test_duplicate_surface_keeps_smallest_concept(self):
        lexicon = load_lexicon(
            io.StringIO("carta\tz.late\tit\ncarta\ta.early\tit\n"), None)
        assert lexicon.entries[("carta",)] == "a.early"

    def test_stopwords_are_tokenized_like_text(self):
        lexicon = load_lexicon(io.StringIO(""),
                               io.StringIO("dell'\tit\n THE \n"))
        assert lexicon.stop_tokens == {"dell", "the"}

    @pytest.mark.parametrize("line", ["of the", "'", "l'acqua"])
    def test_stopword_line_must_hold_one_token(self, line):
        with pytest.raises(IngestError, match="bad stopwords line 2"):
            load_lexicon(io.StringIO(""), io.StringIO(f"di\n{line}\tit\n"))

    # every character but a line end at which str.splitlines breaks
    SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028", "\u2029"]

    @pytest.mark.parametrize("sep", SEPARATORS,
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_separator_stays_inside_a_lexicon_line(self, tmp_path, sep):
        path = tmp_path / "lexicon.tsv"
        path.write_text(f"a{sep}b\tc.x\tit\nbroken\n", encoding="utf-8")
        with pytest.raises(IngestError, match="bad lexicon line 2 'broken'"):
            load_lexicon(path)
        path.write_text(f"a{sep}b\tc.x\tit\n", encoding="utf-8")
        assert load_lexicon(path).entries == {("a", "b"): "c.x"}

    @pytest.mark.parametrize("sep", SEPARATORS,
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_separator_stays_inside_a_stopword_line(self, tmp_path, sep):
        path = tmp_path / "stopwords.txt"
        path.write_text(f"di{sep}\tit\nde{sep}l\n", encoding="utf-8")
        message = f"bad stopwords line 2 {f'de{sep}l'!r}: expected one token, found 2"
        with pytest.raises(IngestError, match=re.escape(message)):
            load_lexicon(io.StringIO(""), path)
        path.write_text(f"{sep}di{sep}\tit\nthe\n", encoding="utf-8")
        assert load_lexicon(io.StringIO(""), path).stop_tokens == {"di", "the"}


class TestExtraction:
    def test_stop_bridged_run_emits_ngram_and_unigrams(self):
        grams = _concept_grams(tokenize("analisi delle performance"), LEX)
        assert grams == ["analisi_delle_performance", "analisi",
                         "performance"]

    def test_adjacent_concepts_join_directly(self):
        grams = _concept_grams(tokenize("digital marketing"), LEX)
        assert grams == ["digital_marketing", "digital", "marketing"]

    def test_plain_word_breaks_the_run(self):
        grams = _concept_grams(tokenize("analisi team performance"), LEX)
        assert grams == ["analisi", "performance"]

    def test_trailing_connector_is_not_kept(self):
        assert _concept_grams(tokenize("analisi delle"), LEX) == ["analisi"]

    def test_leading_connector_is_ignored(self):
        assert _concept_grams(tokenize("delle analisi"), LEX) == ["analisi"]

    def test_longest_surface_wins(self):
        grams = _concept_grams(tokenize("data lake performance"), LEX)
        assert grams == ["data_lake_performance", "data_lake", "performance"]

    def test_runs_chunk_at_max_ngram(self):
        text = "analisi performance digital marketing data"
        grams = _concept_grams(tokenize(text), LEX)
        assert grams == [
            "analisi_performance_digital_marketing",
            "analisi", "performance", "digital", "marketing",
            "data",
        ]

    def test_occurrences_repeat(self):
        grams = _concept_grams(tokenize("analisi e analisi"), LEX)
        assert grams == ["analisi", "analisi"]

    def test_runs_stay_inside_message_parts(self):
        corpus, _window = make_corpus([("t1", "A", [("B", "marketing")])])
        thread = corpus.threads[0]
        object.__setattr__(thread, "title", "digital")
        assert thread_grams(thread, LEX) == ["digital", "marketing"]


class TestCooccurrence:
    def build(self, texts, min_freq=1):
        corpus, window = make_corpus([
            (f"t{i}", "A", [("B", text)]) for i, text in enumerate(texts)
        ])
        return cooccurrence_graph(
            window, LEX, TopicConfig(min_freq=min_freq))

    def test_vertices_filtered_by_frequency(self):
        graph = self.build(
            ["analisi", "analisi", "marketing"], min_freq=2)
        assert set(graph.freq) == {"analisi"}
        assert graph.freq["analisi"] == 2

    def test_edges_need_a_shared_thread(self):
        graph = self.build(["analisi performance", "marketing"])
        assert graph.adj["analisi"] == {"analisi_performance", "performance"}
        assert graph.adj["marketing"] == set()


class TestBronKerbosch:
    def test_triangle_with_pendant(self):
        adj = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b", "d"},
               "d": {"c"}}
        assert bron_kerbosch(adj) == [("a", "b", "c"), ("c", "d")]

    def test_singletons_are_not_topics(self):
        assert bron_kerbosch({"a": set(), "b": set()}) == []

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(9000 + seed)
        n = rng.randrange(2, 11)
        names = [f"v{i}" for i in range(n)]
        adj = {name: set() for name in names}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice([0.2, 0.5, 0.8]):
                    adj[names[i]].add(names[j])
                    adj[names[j]].add(names[i])
        assert bron_kerbosch(adj) == oracles.brute_force_cliques(adj)


class TestCosine:
    def test_half_overlap(self):
        assert cosine({"x": 1, "y": 1}, {"y": 1, "z": 1}) == \
            pytest.approx(0.5)

    def test_empty_input_is_zero(self):
        assert cosine({}, {"x": 1}) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        rng = random.Random(9100 + seed)
        keys = "abcdef"
        a = {k: rng.randrange(5) for k in keys if rng.random() < 0.7}
        b = {k: rng.randrange(5) for k in keys if rng.random() < 0.7}
        a = {k: v for k, v in a.items() if v}
        b = {k: v for k, v in b.items() if v}
        assert cosine(a, b) == pytest.approx(oracles.cosine_reference(a, b))


def topic(topic_id, **members):
    return Topic(topic_id=topic_id, members=members)


class TestMergeVertical:
    def test_similar_topics_merge_into_smaller_id(self):
        merged = merge_vertical([
            topic("w000.t000", x=2, y=2),
            topic("w000.t001", x=2, y=1),
        ], theta_v=0.5)
        (only,) = merged
        assert only.topic_id == "w000.t000"
        assert only.members == {"x": 4, "y": 3}

    def test_dissimilar_topics_stay_apart(self):
        results = merge_vertical([
            topic("w000.t000", x=1, y=1),
            topic("w000.t001", z=1, q=1),
        ], theta_v=0.5)
        assert [t.topic_id for t in results] == ["w000.t000", "w000.t001"]

    def test_greedy_highest_similarity_first(self):
        a = topic("w000.t000", x=10, y=1)
        b = topic("w000.t001", x=10, y=1, z=1)   # closest to a
        c = topic("w000.t002", x=10, z=9)
        merged = merge_vertical([a, b, c], theta_v=0.6)
        ids = sorted(t.topic_id for t in merged)
        assert ids[0] == "w000.t000"
        by_id = {t.topic_id: t for t in merged}
        assert by_id["w000.t000"].members["x"] >= 20


class TestChaining:
    def test_consecutive_windows_chain(self):
        streams = chain_streams([
            [topic("w000.t000", a=3, b=1)],
            [topic("w001.t000", a=2, b=1)],
        ], theta_h=0.3)
        (stream,) = streams
        assert stream.stream_id == "s0000"
        assert [w for w, _t in stream.entries] == [0, 1]

    def test_gap_breaks_the_stream(self):
        streams = chain_streams([
            [topic("w000.t000", a=3, b=1)],
            [],
            [topic("w002.t000", a=3, b=1)],
        ], theta_h=0.3)
        assert [s.stream_id for s in streams] == ["s0000", "s0001"]

    def test_dissimilar_topics_open_new_streams(self):
        streams = chain_streams([
            [topic("w000.t000", a=3, b=1)],
            [topic("w001.t000", z=3, q=1)],
        ], theta_h=0.3)
        assert len(streams) == 2

    def test_each_stream_claims_one_topic_per_window(self):
        streams = chain_streams([
            [topic("w000.t000", a=3, b=3)],
            [topic("w001.t000", a=3, b=3), topic("w001.t001", a=3, b=2)],
        ], theta_h=0.3)
        first = streams[0]
        assert first.topic_at(1).topic_id == "w001.t000"
        assert streams[1].entries[0][1].topic_id == "w001.t001"


class TestWindowTopics:
    LEXICON = ConceptLexicon(
        entries={("alpha",): "a", ("beta",): "b", ("gamma",): "g",
                 ("delta",): "d"},
        stop_tokens=frozenset(),
    )

    def corpus(self):
        texts_by_thread = [
            ["alpha update beta", "alpha update beta"],
            ["alpha update beta"],
            ["gamma update delta", "gamma update delta"],
            ["gamma update delta"],
        ]
        return make_corpus([
            (f"t{i}", "A", [("B", text) for text in texts])
            for i, texts in enumerate(texts_by_thread)
        ])

    def test_two_cliques_become_two_topics(self):
        _corpus, window = self.corpus()
        topics = topics_in_window(window, self.LEXICON,
                                  TopicConfig(min_freq=3))
        assert [t.topic_id for t in topics] == ["w000.t000", "w000.t001"]
        assert set(topics[0].members) == {"alpha", "beta"}
        assert topics[0].members["alpha"] == 3
        assert set(topics[1].members) == {"gamma", "delta"}

    def test_topic_network_filters_threads_and_ratings(self):
        corpus, window = make_corpus(
            [
                ("t0", "A", [("B", "alpha update beta"),
                             ("C", "alpha update beta")]),
                ("t1", "A", [("B", "alpha update beta")]),
                ("t2", "A", [("B", "gamma update delta"),
                             ("D", "gamma update delta")]),
                ("t3", "A", [("D", "gamma update delta")]),
            ],
            [("C", "t0m1", 1), ("C", "t2m1", 1)],
        )
        topics = topics_in_window(window, self.LEXICON,
                                  TopicConfig(min_freq=2))
        streams = chain_streams([topics], theta_h=0.3)
        alpha_stream = next(
            s for s in streams if "alpha" in s.entries[0][1].members)
        filtered = topic_network(alpha_stream, window, self.LEXICON)
        assert [t.thread_id for t in filtered.threads] == ["t0", "t1"]
        events = window_events(filtered, corpus)   # C rated B's t0m1 only
        assert (events.rater.tolist(), events.rated.tolist()) == \
            ([corpus.user_index["C"]], [corpus.user_index["B"]])

    def test_topic_network_requires_presence_in_window(self):
        _corpus, window = self.corpus()
        topics = topics_in_window(window, self.LEXICON,
                                  TopicConfig(min_freq=3))
        streams = chain_streams([topics], theta_h=0.3)
        other = type(window)(index=5, start=window.start, end=window.end,
                             threads=window.threads)
        with pytest.raises(ValueError):
            topic_network(streams[0], other, self.LEXICON)


class TestSerialization:
    def test_rows_are_sorted_and_round_trip(self, tmp_path):
        streams = chain_streams([
            [topic("w000.t000", a=3, b=1), topic("w000.t001", z=2, q=1)],
            [topic("w001.t000", a=2, b=1)],
        ], theta_h=0.3)
        path = tmp_path / "topics.json"
        write_topics_json(streams, path)
        rows = json.loads(path.read_text())
        assert [(r["window"], r["topic_id"]) for r in rows] == [
            (0, "w000.t000"), (0, "w000.t001"), (1, "w001.t000"),
        ]
        by_id = {r["topic_id"]: r for r in rows}
        assert by_id["w000.t001"]["members"] == [
            {"freq": 1, "ngram": "q"}, {"freq": 2, "ngram": "z"},
        ]
        assert by_id["w001.t000"]["stream_id"] == \
            by_id["w000.t000"]["stream_id"]


# ---------------------------------------------------------------------------
# The walker against a reference: _concept_grams, thread_grams and
# cooccurrence_graph as they were written before the first-token index
# (each message tokenized and walked on its own, every surface length
# tried at every token, edges added pair by pair), with their own
# tokenizer.

REF_TOKEN = re.compile(r"\w+", re.UNICODE)


def ref_extract_concepts(text, lexicon):
    tokens = REF_TOKEN.findall(text.lower())
    stop_tokens = lexicon.stop_tokens
    longest = max((len(s) for s in lexicon.entries), default=0)
    runs = []
    current = []
    gap = []
    i = 0
    while i < len(tokens):
        matched = None
        for length in range(min(longest, len(tokens) - i), 0, -1):
            candidate = tuple(tokens[i : i + length])
            if candidate in lexicon.entries:
                matched = candidate
                break
        if matched is not None:
            current.append((gap if current else [], matched))
            gap = []
            i += len(matched)
        elif tokens[i] in stop_tokens and current:
            gap.append(tokens[i])
            i += 1
        else:
            if current:
                runs.append(current)
                current = []
            gap = []
            i += 1
    if current:
        runs.append(current)
    grams = []
    for run in runs:
        for at in range(0, len(run), MAX_NGRAM):
            chunk = run[at : at + MAX_NGRAM]
            if len(chunk) > 1:
                joined = []
                for pos, (gap_tokens, concept_tokens) in enumerate(chunk):
                    if pos > 0:
                        joined.extend(gap_tokens)
                    joined.extend(concept_tokens)
                grams.append("_".join(joined))
            for _gap_tokens, concept_tokens in chunk:
                grams.append("_".join(concept_tokens))
    return grams


def ref_thread_grams(thread, lexicon):
    parts = [thread.title, thread.description]
    parts.extend(c.text for c in thread.comments)
    grams = []
    for part in parts:
        grams.extend(ref_extract_concepts(part, lexicon))
    return grams


def ref_cooccurrence_graph(window, lexicon, min_freq):
    per_thread = [ref_thread_grams(t, lexicon) for t in window.threads]
    freq = collections.Counter()
    for grams in per_thread:
        freq.update(grams)
    kept = {gram for gram, count in freq.items() if count >= min_freq}
    adj = {gram: set() for gram in kept}
    for grams in per_thread:
        present = sorted(set(grams) & kept)
        for a_pos, a in enumerate(present):
            for b in present[a_pos + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    return {gram: freq[gram] for gram in sorted(kept)}, adj


def window_of(messages_per_thread):
    """A slice whose thread i has messages_per_thread[i] as its title,
    description and comments, in that order (missing parts are empty)."""
    _corpus, window = make_corpus([
        (f"t{i}", "A", [("B", text) for text in messages[2:]])
        for i, messages in enumerate(messages_per_thread)
    ])
    threads = tuple(
        dataclasses.replace(thread, title=(messages + ["", ""])[0],
                            description=(messages + ["", ""])[1])
        for thread, messages in zip(window.threads, messages_per_thread)
    )
    return dataclasses.replace(window, threads=threads)


def assert_walks_like_reference(window, lexicon, min_freq=1):
    for thread in window.threads:
        for text in (thread.title, thread.description,
                     *(c.text for c in thread.comments)):
            assert _concept_grams(tokenize(text), lexicon) == \
                ref_extract_concepts(text, lexicon), text
        assert thread_grams(thread, lexicon) == \
            ref_thread_grams(thread, lexicon)
    graph = cooccurrence_graph(window, lexicon, TopicConfig(min_freq=min_freq))
    freq, adj = ref_cooccurrence_graph(window, lexicon, min_freq)
    assert graph.freq == freq
    assert list(graph.freq) == list(freq)
    assert graph.adj == adj


def tsv_lexicon(surfaces, stopwords=()):
    return load_lexicon(
        io.StringIO("".join(f"{surface}\tc{k}\n"
                            for k, surface in enumerate(surfaces))),
        io.StringIO("".join(f"{word}\n" for word in stopwords)))


class TestWalkerAgainstReference:
    # name -> (surfaces, stopwords, messages of each thread)
    CASES = {
        "surfaces sharing a first token at several lengths": (
            ["data", "data lake", "data lake house", "data lake house tour"],
            [],
            [["data lake house data lake data", "data lake lake house",
              "data lake house tour data lake house"]]),
        "surfaces starting with or holding a stop token": (
            ["carta", "carta di credito", "of course", "the cloud of things"],
            ["di", "of", "the"],
            [["carta di credito of course carta di carta",
              "the cloud of things of the cloud", "of course of carta"]]),
        "a stop token that starts a surface": (
            ["di maio", "carta", "maio"],
            ["di"],
            [["carta di maio", "carta di carta di maio di", "di di maio"]]),
        "runs longer than MAX_NGRAM": (
            ["a", "b", "c", "d e"],
            ["of"],
            [["a b c d e a of b c a b c a b", "a of of b of c d e of a b c"]]),
        "punctuation, digits and underscores": (
            ["4g", "a_b", "x9 42", "_"],
            ["0"],
            [["4G, a_b! X9-42 (_) 4g 0 a_b", "a_b_c a-b 42 x9 0 42",
              "4g; x9'42 _ _ 0 _"]]),
        "a dotted capital I and a Greek final sigma": (
            ["İstanbul", "ΟΔΟΣ", "οδοσ", "σας"],
            ["İ"],
            [["İSTANBUL istanbul i̇stanbul ΟΔΟΣ οδοσ ΣΑΣ",
              "Οδος οδος İ ΟΔΟΣ İstanbul", "ΟΔΟΣ_Α σας ΣΑΣ."]]),
        "empty messages": (
            ["alpha", "beta"],
            ["of"],
            [["", "", "", "alpha of beta", " ,. ", ""], [], [""]]),
        "runs that end one message and start the next": (
            ["alpha", "beta", "alpha beta"],
            ["of"],
            [["alpha", "beta", "alpha of", "of beta", "alpha beta", "beta"],
             ["beta alpha", "alpha", "", "alpha"]]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_case(self, name):
        surfaces, stopwords, threads = self.CASES[name]
        assert_walks_like_reference(window_of(threads),
                                    tsv_lexicon(surfaces, stopwords))

    def test_surfaces_holding_stop_tokens_join_runs(self):
        surfaces, stopwords, _threads = \
            self.CASES["surfaces starting with or holding a stop token"]
        grams = _concept_grams(
            tokenize("carta di credito of course carta di carta"),
            tsv_lexicon(surfaces, stopwords))
        assert grams == ["carta_di_credito_of_course_carta_di_carta",
                         "carta_di_credito", "of_course", "carta", "carta"]

    def test_runs_never_span_messages(self):
        surfaces, stopwords, threads = \
            self.CASES["runs that end one message and start the next"]
        grams = thread_grams(window_of(threads).threads[1],
                             tsv_lexicon(surfaces, stopwords))
        assert grams == ["beta_alpha", "beta", "alpha", "alpha", "alpha"]

    # generated lexicons: tokens as tokenize yields them, and how text
    # may spell them
    SPELLINGS = {
        "alpha": ["alpha", "Alpha", "ALPHA"], "beta": ["beta", "BETA"],
        "gamma": ["gamma"], "a_b": ["a_b", "A_B"], "x9": ["x9", "X9"],
        "42": ["42"], "i": ["i", "İ"], "stanbul": ["stanbul"],
        "οδος": ["οδος", "ΟΔΟΣ"], "σα": ["σα", "ΣΑ"],
        "di": ["di", "DI"], "of": ["of"], "the": ["the", "The"],
    }
    FILLER = ["team", "update", "0", "_", "İstanbul", "dell'alpha"]
    SEPARATORS = [" ", " ", " ", ", ", ". ", "-", "'", "! ", "\n", " (", ") "]

    def generated_case(self, rng):
        tokens = sorted(self.SPELLINGS)
        stops = set(rng.sample(["di", "of", "the"], rng.randrange(4)))
        if rng.random() < 0.4:
            stops.add(rng.choice(tokens))
        surfaces = set()
        for first in rng.sample(tokens, rng.randrange(2, 6)):
            tail = [first]
            for _ in range(rng.randrange(1, 5)):
                if rng.random() < 0.7:
                    surfaces.add(tuple(tail))
                tail.append(rng.choice(tokens))
        lexicon = ConceptLexicon(
            entries={s: f"c{k}" for k, s in enumerate(sorted(surfaces))},
            stop_tokens=frozenset(stops),
        )

        def message():
            if rng.random() < 0.15:
                return rng.choice(["", " ", "?!"])
            words = []
            for _ in range(rng.randrange(1, 14)):
                if rng.random() < 0.12:
                    words.append(rng.choice(self.FILLER))
                else:
                    words.append(rng.choice(self.SPELLINGS[rng.choice(tokens)]))
            return "".join(word + rng.choice(self.SEPARATORS)
                           for word in words)

        threads = [[message() for _ in range(rng.randrange(7))]
                   for _ in range(rng.randrange(1, 6))]
        return window_of(threads), lexicon

    @pytest.mark.parametrize("seed", range(50))
    def test_generated_lexicons(self, seed):
        rng = random.Random(9200 + seed)
        for _case in range(5):
            window, lexicon = self.generated_case(rng)
            assert_walks_like_reference(window, lexicon,
                                        min_freq=rng.randrange(1, 4))
