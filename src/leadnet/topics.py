"""Mixed-lingual topic extraction from thread texts.

A hand-maintained lexicon lists surface forms (possibly multiword, any
language), plus a set of connector tokens (stop tokens) such as
prepositions and determiners.  Extraction lowercases, tokenizes and
longest-matches the surfaces; adjacent concepts, allowing intervening
stop tokens, join into "_"-separated n-grams, so "analisi delle
performance" and "digital marketing" each come out as one n-gram.
N-grams are named by their surfaces: a lexicon line's concept id must
be present, but no stage reads it.

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
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

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


class ConceptLexicon(NamedTuple):
    """surfaces_by_first: first token -> the distinct surfaces (lowercased
    token tuples) it starts, longest first.
    stop_tokens: connector tokens, of every language alike."""

    surfaces_by_first: dict[str, tuple[tuple[str, ...], ...]]
    stop_tokens: frozenset[str]


def tokenize(text: str) -> list[str]:
    return TOKEN.findall(text.lower())


def load_lexicon(
    lexicon_source: str | Path | IO[str],
    stopwords_source: str | Path | IO[str] | None = None,
) -> ConceptLexicon:
    """Read the TSV lexicon (surface_form<TAB>concept_id<TAB>language) and
    the stopwords file (one token per line; a <TAB>language is ignored).
    Surfaces and stopwords are tokenized like message text; a surface
    listed twice counts once.  A lexicon line without a surface token or
    without a non-empty concept id, or a stopword line that is not
    exactly one token, raises IngestError naming its line number."""
    index: dict[str, dict[tuple[str, ...], None]] = defaultdict(dict)
    for lineno, line in _read_lines(lexicon_source):
        parts = line.split("\t")
        if len(parts) < 2:
            raise IngestError(f"bad lexicon line {lineno} {line!r}:"
                              " expected surface<TAB>concept_id")
        surface = tuple(tokenize(parts[0]))
        if not surface or not parts[1].strip():
            raise IngestError(f"bad lexicon line {lineno} {line!r}")
        index[surface[0]][surface] = None

    stop_tokens: set[str] = set()
    if stopwords_source is not None:
        for lineno, line in _read_lines(stopwords_source):
            tokens = tokenize(line.split("\t")[0])
            if len(tokens) != 1:
                raise IngestError(f"bad stopwords line {lineno} {line!r}:"
                                  f" expected one token, found {len(tokens)}")
            stop_tokens.add(tokens[0])
    surfaces_by_first = {first: tuple(sorted(surfaces, key=len, reverse=True))
                         for first, surfaces in index.items()}
    return ConceptLexicon(surfaces_by_first, frozenset(stop_tokens))


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


def cooccurrence_graph(
    slice: WindowSlice, lexicon: ConceptLexicon, cfg: TopicConfig = TopicConfig()
) -> tuple[dict[str, int], dict[str, set[str]]]:
    """(freq, adj): the window occurrence count of each kept n-gram, by
    n-gram, and the undirected adjacency among the kept n-grams, an edge
    joining two that occur in one thread."""
    per_thread = [thread_grams(t, lexicon) for t in slice.threads]
    freq = Counter()
    for grams in per_thread:
        freq.update(grams)
    kept = {gram for gram, count in freq.items() if count >= cfg.min_freq}
    adj: dict[str, set[str]] = {gram: set() for gram in kept}
    for grams in per_thread:
        here = kept.intersection(grams)
        for gram in here:
            adj[gram] |= here
    for gram, neighbors in adj.items():
        neighbors.discard(gram)
    return {gram: freq[gram] for gram in sorted(kept)}, adj


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
    freq, adj = cooccurrence_graph(slice, lexicon, cfg)
    topics = [
        Topic(
            topic_id=f"w{slice.index:03d}.t{position:03d}",
            members={gram: freq[gram] for gram in clique},
        )
        for position, clique in enumerate(bron_kerbosch(adj))
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
) -> dict[str, list[tuple[int, Topic]]]:
    """Greedy best-match chaining between consecutive windows, as
    {stream id: [(window, topic), ...]} in creation order.

    Pairs (topic of window w, stream that last grew at window w-1) with
    cosine >= theta_h are taken in descending cosine order (ties by
    topic id then stream id); each stream claims at most one topic per
    window and each topic joins at most one stream.  Leftover topics
    start new streams, numbered in creation order.
    """
    streams: dict[str, list[tuple[int, Topic]]] = {}
    grown: dict[str, Topic] = {}  # stream id -> its topic of window w-1
    for window, window_topics in enumerate(topics_per_window):
        ordered = sorted(window_topics, key=lambda t: t.topic_id)
        candidates = []
        for topic in ordered:
            for stream_id, last in grown.items():
                sim = cosine(topic.members, last.members)
                if sim >= theta_h:
                    candidates.append((-sim, topic.topic_id, stream_id, topic))
        candidates.sort(key=lambda item: item[:3])
        claimed_topics: set[str] = set()
        grown_now: dict[str, Topic] = {}
        for _sim, topic_id, stream_id, topic in candidates:
            if topic_id not in claimed_topics and stream_id not in grown_now:
                streams[stream_id].append((window, topic))
                claimed_topics.add(topic_id)
                grown_now[stream_id] = topic
        for topic in ordered:
            if topic.topic_id not in claimed_topics:
                stream_id = f"s{len(streams):04d}"
                streams[stream_id] = [(window, topic)]
                grown_now[stream_id] = topic
        grown = grown_now
    return streams


def topic_network(
    topic: Topic, slice: WindowSlice, lexicon: ConceptLexicon
) -> WindowSlice:
    """The sub-slice of threads mentioning at least one n-gram of
    ``topic``, a topic of this window."""
    members = set(topic.members)
    threads = tuple(
        t for t in slice.threads
        if members & set(thread_grams(t, lexicon))
    )
    return WindowSlice(index=slice.index, start=slice.start, end=slice.end,
                       threads=threads)


def write_topics_json(streams: Mapping[str, Sequence[tuple[int, Topic]]],
                      path: str | Path) -> None:
    """One row per (window, topic), sorted by window then topic id, its
    members sorted by n-gram."""
    rows = [{"window": window, "topic_id": topic.topic_id, "stream_id": stream_id,
             "members": [{"ngram": gram, "freq": topic.members[gram]}
                         for gram in sorted(topic.members)]}
            for stream_id, entries in streams.items() for window, topic in entries]
    rows.sort(key=lambda row: (row["window"], row["topic_id"]))
    with open(path, "w", encoding="utf-8") as out:
        json.dump(rows, out, sort_keys=True, ensure_ascii=False, indent=2)
        out.write("\n")
