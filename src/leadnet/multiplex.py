"""Three-layer interaction network built from one window of a corpus.

Layers share the corpus user indexing and differ in what an edge means:

* empowerment: thread author i -> commenter j, one indicator per thread,
  normalized over everyone who empowered j (columns sum to 1);
* collaboration: commenter i -> answered user j, weighted 0.5 + 0.5/k by
  the comment's position k in the thread, normalized over everyone who
  answered j (columns sum to 1);
* credibility: rater i -> rated author j, trust 0.5 + 0.5 * mean(delta)
  over the messages of j that i rated, normalized over everyone i rated
  (rows sum to 1).

Self-loops never appear in any layer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from .ingest import Corpus, WindowSlice, message_author_map

# Orientation of the stored weights: which endpoint the normalization
# sums to 1 over.
ORIENT_RECEIVER = "receiver_normalized"
ORIENT_SENDER = "sender_normalized"

LAYER_NAMES = ("empowerment", "collaboration", "credibility")


@dataclass(frozen=True)
class Layer:
    """Sparse weighted digraph over the corpus user index.

    ``edges`` maps (src, dst) to a weight >= 0; treat it as immutable.
    """

    n: int
    edges: dict[tuple[int, int], float]
    orientation: str

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("layer needs n >= 1")
        if self.orientation not in (ORIENT_RECEIVER, ORIENT_SENDER):
            raise ValueError(f"unknown orientation {self.orientation!r}")


@dataclass(frozen=True)
class MultiplexTensor:
    n: int
    empowerment: Layer
    collaboration: Layer
    credibility: Layer

    def layer(self, name: str) -> Layer:
        if name not in LAYER_NAMES:
            raise ValueError(f"unknown layer {name!r}")
        return getattr(self, name)

    def layers(self) -> tuple[tuple[str, Layer], ...]:
        return tuple((name, self.layer(name)) for name in LAYER_NAMES)


def comment_weight(k: int) -> float:
    """Positional weight of the k-th comment of a thread (k starts at 1):
    the first reply counts 1.0, later replies decay toward 0.5."""
    if k < 1:
        raise ValueError("comment order k starts at 1")
    return 0.5 + 0.5 / k


def _receiver_normalize(
    raw: Mapping[tuple[int, int], float]
) -> dict[tuple[int, int], float]:
    incoming: dict[int, float] = defaultdict(float)
    for (_i, j), w in raw.items():
        incoming[j] += w
    return {(i, j): w / incoming[j] for (i, j), w in raw.items()}


def build_empowerment(slice: WindowSlice, corpus: Corpus) -> Layer:
    """One indicator per (thread, distinct commenter), author -> commenter,
    then normalized over each commenter's empowerers."""
    index = corpus.user_index
    raw: dict[tuple[int, int], float] = defaultdict(float)
    for thread in slice.threads:
        i = index[thread.author.user_id]
        seen: set[int] = set()
        for comment in thread.comments:
            j = index[comment.author.user_id]
            if j == i or j in seen:
                continue
            seen.add(j)
            raw[(i, j)] += 1.0
    return Layer(n=corpus.n_users, edges=_receiver_normalize(raw),
                 orientation=ORIENT_RECEIVER)


def build_collaboration(slice: WindowSlice, corpus: Corpus) -> Layer:
    """Comment k aims 0.5 + 0.5/k at its recipient (mention or thread
    author); self-answers are dropped; normalized over each recipient's
    answerers."""
    index = corpus.user_index
    raw: dict[tuple[int, int], float] = defaultdict(float)
    for thread in slice.threads:
        for comment, recipient in zip(thread.comments, thread.recipients):
            i = index[comment.author.user_id]
            j = index[recipient.user_id]
            if i == j:
                continue
            raw[(i, j)] += comment_weight(comment.order_k)
    return Layer(n=corpus.n_users, edges=_receiver_normalize(raw),
                 orientation=ORIENT_RECEIVER)


def _trust_by_rater(
    slice: WindowSlice, corpus: Corpus
) -> dict[int, dict[int, float]]:
    authors = message_author_map(slice.threads)
    index = corpus.user_index
    deltas: dict[tuple[int, int], list[int]] = defaultdict(list)
    for event in slice.ratings:
        target_author = authors.get(event.target_message_id)
        if target_author is None:
            continue
        i = index[event.rater.user_id]
        j = index[target_author.user_id]
        if i == j:
            continue
        deltas[(i, j)].append(event.value)
    trust: dict[int, dict[int, float]] = defaultdict(dict)
    for (i, j), ds in deltas.items():
        trust[i][j] = 0.5 + 0.5 * (sum(ds) / len(ds))
    return trust


def trust_score(rater_id: str, ratee_id: str, slice: WindowSlice,
                corpus: Corpus) -> float | None:
    """0.5 + 0.5 * mean(delta) over the ratee's messages rated by the
    rater inside the window; None when the rater never rated the ratee.
    Values below 0.5 indicate distrust; the range is [0, 1]."""
    i = corpus.user_index[rater_id]
    j = corpus.user_index[ratee_id]
    return _trust_by_rater(slice, corpus).get(i, {}).get(j)


def build_credibility(slice: WindowSlice, corpus: Corpus) -> Layer:
    """Trust scores normalized over each rater's rated authors; a rater
    whose scores are all zero (disliked everything) spreads uniformly."""
    edges: dict[tuple[int, int], float] = {}
    for i, trusts in _trust_by_rater(slice, corpus).items():
        total = sum(trusts.values())
        for j, t in sorted(trusts.items()):
            edges[(i, j)] = t / total if total > 0 else 1.0 / len(trusts)
    return Layer(n=corpus.n_users, edges=edges, orientation=ORIENT_SENDER)


def build_tensor(slice: WindowSlice, corpus: Corpus) -> MultiplexTensor:
    return MultiplexTensor(
        n=corpus.n_users,
        empowerment=build_empowerment(slice, corpus),
        collaboration=build_collaboration(slice, corpus),
        credibility=build_credibility(slice, corpus),
    )


def layer_union(tensor: MultiplexTensor) -> list[set[int]]:
    """Undirected union of the three layers' edge supports, as neighbor
    sets indexed like the corpus users."""
    neighbors: list[set[int]] = [set() for _ in range(tensor.n)]
    for _name, layer in tensor.layers():
        for (i, j) in layer.edges:
            neighbors[i].add(j)
            neighbors[j].add(i)
    return neighbors
