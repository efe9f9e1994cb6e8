"""Mixed-lingual topic extraction from thread texts.

A hand-maintained lexicon maps surface forms (possibly multiword, any
language) to concept ids, plus a set of connector tokens (stop tokens)
such as prepositions and determiners.  Extraction lowercases, tokenizes
and longest-matches the lexicon; adjacent concepts, allowing intervening
stop tokens, join into "_"-separated n-grams, so "analisi delle
performance" and "digital marketing" each come out as one n-gram.

Per window, n-grams occurring at least min_freq times become vertices of
a co-occurrence graph (an edge means two n-grams appeared in the same
thread); maximal cliques of that graph are topics; near-duplicate topics
merge when their frequency-vector cosine reaches theta_v; topics of
consecutive windows chain into streams when the cosine reaches theta_h.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .ingest import IngestError, ThreadRecord, WindowSlice, open_text

TOKEN = re.compile(r"\w+", re.UNICODE)

# Runs of more concepts than this are chunked into several n-grams.
MAX_NGRAM = 4


@dataclass(frozen=True)
class TopicConfig:
    min_freq: int = 3
    theta_v: float = 0.5
    theta_h: float = 0.3

    def __post_init__(self) -> None:
        if self.min_freq < 1:
            raise ValueError("min_freq must be >= 1")
        if not 0.0 <= self.theta_v <= 1.0 or not 0.0 <= self.theta_h <= 1.0:
            raise ValueError("theta_v and theta_h must be in [0, 1]")


@dataclass(frozen=True)
class ConceptLexicon:
    """entries: lowercased surface token tuple -> concept id.
    stop_tokens: connector tokens, of every language alike."""

    entries: dict[tuple[str, ...], str]
    stop_tokens: frozenset[str]

    def __post_init__(self) -> None:
        for surface in self.entries:
            if not surface or any(not t for t in surface):
                raise ValueError("lexicon surfaces must be non-empty token tuples")

    @cached_property
    def surfaces_by_first(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        """First token -> the surfaces it starts, longest first."""
        index: dict[str, list[tuple[str, ...]]] = defaultdict(list)
        for surface in self.entries:
            index[surface[0]].append(surface)
        return {first: tuple(sorted(surfaces, key=len, reverse=True))
                for first, surfaces in index.items()}


def tokenize(text: str) -> list[str]:
    return TOKEN.findall(text.lower())


def load_lexicon(
    lexicon_source: str | Path | IO[str],
    stopwords_source: str | Path | IO[str] | None = None,
) -> ConceptLexicon:
    """Read the TSV lexicon (surface_form<TAB>concept_id<TAB>language) and
    the stopwords file (one token per line; a <TAB>language is ignored).
    Surfaces and stopwords are tokenized like message text.  Duplicate
    surfaces keep the lexicographically smallest concept id.  A malformed
    lexicon line, or a stopword line that is not exactly one token,
    raises IngestError naming its line number."""
    entries: dict[tuple[str, ...], str] = {}
    for lineno, line in _read_lines(lexicon_source):
        parts = line.split("\t")
        if len(parts) < 2:
            raise IngestError(f"bad lexicon line {lineno} {line!r}:"
                              " expected surface<TAB>concept_id")
        surface = tuple(tokenize(parts[0]))
        concept_id = parts[1].strip()
        if not surface or not concept_id:
            raise IngestError(f"bad lexicon line {lineno} {line!r}")
        if surface in entries:
            entries[surface] = min(entries[surface], concept_id)
        else:
            entries[surface] = concept_id

    stop_tokens: set[str] = set()
    if stopwords_source is not None:
        for lineno, line in _read_lines(stopwords_source):
            tokens = tokenize(line.split("\t")[0])
            if len(tokens) != 1:
                raise IngestError(f"bad stopwords line {lineno} {line!r}:"
                                  f" expected one token, found {len(tokens)}")
            stop_tokens.add(tokens[0])
    return ConceptLexicon(entries=entries, stop_tokens=frozenset(stop_tokens))


def _read_lines(source: str | Path | IO[str]) -> Iterable[tuple[int, str]]:
    """(line number, line without its line end) for every line that is
    neither blank nor a "#" comment.  Only a line end ends a line: a form
    feed or other Unicode separator stays inside it."""
    with open_text(source) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.rstrip("\r\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line


def thread_grams(thread: ThreadRecord, lexicon: ConceptLexicon) -> list[str]:
    """Concept n-grams of a whole thread: title, description and every
    comment, in one walk with a None between messages, which no surface
    or stop token equals, so runs never span message boundaries."""
    tokens: list[str | None] = tokenize(thread.title)
    tokens.append(None)
    tokens += tokenize(thread.description)
    for comment in thread.comments:
        tokens.append(None)
        tokens += tokenize(comment.text)
    return _concept_grams(tokens, lexicon)


def _concept_grams(
    tokens: Sequence[str | None], lexicon: ConceptLexicon
) -> list[str]:
    """Concept n-grams of a token stream, in occurrence order.

    Lexicon surfaces are longest-matched over the tokens.  Each maximal
    run of concepts (stop tokens may sit between them; any other token,
    or a None, breaks the run) is emitted joined by "_", including the
    connectors, followed by each member concept alone.  Runs longer than
    MAX_NGRAM concepts are chunked greedily left to right.  The chunk
    being built is kept flat: its tokens, with the connectors between
    its concepts, and the "_"-joined name of each concept."""
    by_first = lexicon.surfaces_by_first
    stop_tokens = lexicon.stop_tokens
    grams: list[str] = []
    chunk: list[str] = []
    names: list[str] = []
    gap: list[str] = []
    skip = 0
    for i, token in enumerate(tokens):
        if i < skip:
            continue  # inside the surface matched last
        for surface in by_first.get(token, ()):
            width = len(surface)
            if width == 1 or tuple(tokens[i : i + width]) == surface:
                break
        else:
            if not names:
                continue
            if token in stop_tokens:
                gap.append(token)
                continue
            _emit_chunk(chunk, names, grams)  # any other token ends the run
            chunk, names, gap = [], [], []
            continue
        skip = i + width
        if len(names) == MAX_NGRAM:
            _emit_chunk(chunk, names, grams)
            chunk, names = [], []
        elif names:
            chunk += gap
        gap = []
        chunk += surface
        names.append("_".join(surface))
    _emit_chunk(chunk, names, grams)
    return grams


def _emit_chunk(chunk: list[str], names: list[str], grams: list[str]) -> None:
    """A chunk of several concepts yields its joined tokens, then each
    concept alone; a chunk of one yields that concept."""
    if len(names) > 1:
        grams.append("_".join(chunk))
    grams.extend(names)


@dataclass(frozen=True)
class CooccurrenceGraph:
    """freq: window occurrence count of each kept n-gram.
    adj: undirected adjacency among kept n-grams (same-thread edges)."""

    freq: dict[str, int]
    adj: dict[str, set[str]]


def cooccurrence_graph(
    slice: WindowSlice, lexicon: ConceptLexicon, cfg: TopicConfig = TopicConfig()
) -> CooccurrenceGraph:
    per_thread = [thread_grams(t, lexicon) for t in slice.threads]
    freq = Counter()
    for grams in per_thread:
        freq.update(grams)
    kept = {gram for gram, count in freq.items() if count >= cfg.min_freq}
    pairs: set[tuple[str, str]] = set()
    for grams in per_thread:
        pairs.update(combinations(sorted(kept.intersection(grams)), 2))
    adj: dict[str, set[str]] = {gram: set() for gram in kept}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return CooccurrenceGraph(
        freq={gram: freq[gram] for gram in sorted(kept)}, adj=adj
    )


def bron_kerbosch(adj: Mapping[str, set[str]]) -> list[tuple[str, ...]]:
    """All maximal cliques of size >= 2, with pivoting; each clique is
    sorted and the list is sorted, so output order is canonical."""
    cliques: list[tuple[str, ...]] = []

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            if len(r) >= 2:
                cliques.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(adj), set())
    return sorted(cliques)


@dataclass(frozen=True)
class Topic:
    """A clique of co-occurring concept n-grams inside one window.
    members maps each n-gram to its occurrence count in the window."""

    topic_id: str
    members: dict[str, int]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a topic needs at least two n-grams")


@dataclass(frozen=True)
class TopicStream:
    """One topic chained through consecutive windows."""

    stream_id: str
    entries: tuple[tuple[int, Topic], ...]

    def topic_at(self, window: int) -> Topic | None:
        for w, topic in self.entries:
            if w == window:
                return topic
        return None


def cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine similarity over the union n-gram space; 0 for empty input."""
    dot = sum(value * b[key] for key, value in a.items() if key in b)
    norm_a = sum(value * value for value in a.values()) ** 0.5
    norm_b = sum(value * value for value in b.values()) ** 0.5
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def topics_in_window(
    slice: WindowSlice, lexicon: ConceptLexicon, cfg: TopicConfig = TopicConfig()
) -> list[Topic]:
    """Cliques of the window's co-occurrence graph, vertically merged.
    Topic ids are canonical: w<window>.t<position in clique order>."""
    graph = cooccurrence_graph(slice, lexicon, cfg)
    topics = [
        Topic(
            topic_id=f"w{slice.index:03d}.t{position:03d}",
            members={gram: graph.freq[gram] for gram in clique},
        )
        for position, clique in enumerate(bron_kerbosch(graph.adj))
    ]
    return merge_vertical(topics, cfg.theta_v)


def merge_vertical(topics: Sequence[Topic], theta_v: float) -> list[Topic]:
    """Greedy single-link merging: repeatedly merge the pair with the
    highest cosine >= theta_v (ties to the lexicographically smallest id
    pair), summing frequency maps; the smaller id survives."""
    pool = {t.topic_id: t for t in topics}
    while len(pool) > 1:
        best: tuple[float, str, str] | None = None
        ids = sorted(pool)
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1 :]:
                sim = cosine(pool[a].members, pool[b].members)
                if sim >= theta_v and (best is None or sim > best[0]):
                    best = (sim, a, b)
        if best is None:
            break
        _, a, b = best
        merged = Counter(pool[a].members)
        merged.update(pool[b].members)
        del pool[b]
        pool[a] = Topic(topic_id=a, members=dict(merged))
    return [pool[topic_id] for topic_id in sorted(pool)]


def chain_streams(
    topics_per_window: Sequence[Sequence[Topic]], theta_h: float
) -> list[TopicStream]:
    """Greedy best-match chaining between consecutive windows.

    Pairs (topic of window w, stream that last grew at window w-1) with
    cosine >= theta_h are taken in descending cosine order (ties by
    topic id then stream id); each stream claims at most one topic per
    window and each topic joins at most one stream.  Leftover topics
    start new streams, numbered in creation order.
    """
    streams: list[dict] = []
    counter = 0
    for window, window_topics in enumerate(topics_per_window):
        open_streams = [
            s for s in streams if s["entries"][-1][0] == window - 1
        ]
        candidates = []
        for topic in sorted(window_topics, key=lambda t: t.topic_id):
            for stream in open_streams:
                sim = cosine(topic.members, stream["entries"][-1][1].members)
                if sim >= theta_h:
                    candidates.append((sim, topic.topic_id, stream["id"], topic, stream))
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
        claimed_topics: set[str] = set()
        claimed_streams: set[str] = set()
        for sim, topic_id, stream_id, topic, stream in candidates:
            if topic_id in claimed_topics or stream_id in claimed_streams:
                continue
            stream["entries"].append((window, topic))
            claimed_topics.add(topic_id)
            claimed_streams.add(stream_id)
        for topic in sorted(window_topics, key=lambda t: t.topic_id):
            if topic.topic_id not in claimed_topics:
                streams.append({"id": f"s{counter:04d}", "entries": [(window, topic)]})
                counter += 1
    return [
        TopicStream(stream_id=s["id"], entries=tuple(s["entries"]))
        for s in streams
    ]


def topic_network(
    stream: TopicStream,
    slice: WindowSlice,
    lexicon: ConceptLexicon,
) -> WindowSlice:
    """The sub-slice of threads mentioning at least one n-gram of the
    stream's topic in this window."""
    topic = stream.topic_at(slice.index)
    if topic is None:
        raise ValueError(
            f"stream {stream.stream_id} has no topic in window {slice.index}"
        )
    members = set(topic.members)
    threads = tuple(
        t for t in slice.threads
        if members & set(thread_grams(t, lexicon))
    )
    return WindowSlice(index=slice.index, start=slice.start, end=slice.end,
                       threads=threads)


def streams_to_rows(streams: Sequence[TopicStream]) -> list[dict]:
    """JSON-ready rows: one per (window, topic), sorted by window then
    topic id, members sorted by n-gram."""
    rows = []
    for stream in streams:
        for window, topic in stream.entries:
            rows.append({
                "window": window,
                "topic_id": topic.topic_id,
                "stream_id": stream.stream_id,
                "members": [
                    {"ngram": gram, "freq": topic.members[gram]}
                    for gram in sorted(topic.members)
                ],
            })
    rows.sort(key=lambda row: (row["window"], row["topic_id"]))
    return rows


def write_topics_json(streams: Sequence[TopicStream], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(streams_to_rows(streams), out, sort_keys=True,
                  ensure_ascii=False, indent=2)
        out.write("\n")
