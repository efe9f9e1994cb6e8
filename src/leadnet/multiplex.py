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

Self-loops never appear in any layer; ``Layer`` rejects one.

A window is walked once, by ``window_events``, into integer event rows:
one per thread (its author and first-reply latency), one per comment and
one per rating.  Each layer is a group-by over those rows, and the
per-window analytics read the same rows.  Every floating-point sum adds
its terms in the order the window lists them, so the weights are
bit-identical to accumulating them in dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .ingest import Corpus, WindowSlice

# Orientation of the stored weights: which endpoint the normalization
# sums to 1 over.
ORIENT_RECEIVER = "receiver_normalized"
ORIENT_SENDER = "sender_normalized"

LAYER_NAMES = ("empowerment", "collaboration", "credibility")


class Layer:
    """Sparse weighted digraph over the corpus user index.

    The edges are held as three read-only arrays sorted by (src, dst):
    ``src``, ``dst`` and ``weight`` (a weight may be 0); no edge is a
    self-loop.  ``flow`` is the matrix rank moves by, as arrays in CSR
    order, and ``edges`` a read-only {(src, dst): weight} mapping; both
    are derived on first use.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                 orientation: str):
        if orientation not in (ORIENT_RECEIVER, ORIENT_SENDER):
            raise ValueError(f"unknown orientation {orientation!r}")
        if np.any(src == dst):
            raise ValueError("layer holds a self-loop")
        for array in (src, dst, weight):
            array.setflags(write=False)
        self.orientation = orientation
        self.src, self.dst, self.weight = src, dst, weight

    @cached_property
    def flow(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M[gainer, giver] = edge weight as read-only (gainer, giver,
        weight) arrays sorted by (gainer, giver), where the giver is the
        endpoint the layer is normalized over: rank flows against the
        edges of a receiver-normalized layer, crediting their sources,
        and along the edges of a sender-normalized one, crediting their
        targets."""
        if self.orientation == ORIENT_RECEIVER:
            return self.src, self.dst, self.weight
        order = np.lexsort((self.src, self.dst))
        arrays = self.dst[order], self.src[order], self.weight[order]
        for array in arrays:
            array.setflags(write=False)
        return arrays

    @cached_property
    def edges(self) -> Mapping[tuple[int, int], float]:
        return MappingProxyType(dict(zip(
            zip(self.src.tolist(), self.dst.tolist()), self.weight.tolist())))


@dataclass(frozen=True)
class MultiplexTensor:
    n: int
    empowerment: Layer
    collaboration: Layer
    credibility: Layer

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("tensor needs n >= 1")

    def layer(self, name: str) -> Layer:
        if name not in LAYER_NAMES:
            raise ValueError(f"unknown layer {name!r}")
        return getattr(self, name)

    def layers(self) -> tuple[tuple[str, Layer], ...]:
        return tuple((name, self.layer(name)) for name in LAYER_NAMES)


def comment_weight(k: int | np.ndarray) -> float | np.ndarray:
    """Positional weight of the k-th comment of a thread (k starts at 1):
    the first reply counts 1.0, later replies decay toward 0.5.  ``k``
    may be an int or an integer array."""
    if np.any(np.asarray(k) < 1):
        raise ValueError("comment order k starts at 1")
    return 0.5 + 0.5 / k


class WindowEvents(NamedTuple):
    """One window as integer rows over the corpus user index.

    Per thread, in window order: its author and the seconds from its
    publication to its first comment (NaN without comments).  Per
    comment, in thread then comment order: the thread's position in the
    window, the commenter, the user it answers and its place k (from 1).  Per
    rating, in corpus order: the rater, the author of the rated message
    and the value."""

    thread_author: np.ndarray
    first_reply_s: np.ndarray
    position: np.ndarray
    commenter: np.ndarray
    recipient: np.ndarray
    order_k: np.ndarray
    rater: np.ndarray
    rated: np.ndarray
    value: np.ndarray


def window_events(slice: WindowSlice, corpus: Corpus) -> WindowEvents:
    """Walk the window once; the ratings are those of its messages, as
    ``Corpus.ratings_in`` picks them."""
    index = corpus.user_index
    thread_author, first_reply_s = [], []
    position, commenter, recipient, order_k = [], [], [], []
    for p, thread in enumerate(slice.threads):
        thread_author.append(index[thread.author.user_id])
        comments = thread.comments
        if not comments:
            first_reply_s.append(np.nan)
            continue
        first_reply_s.append(
            (comments[0].created_at - thread.published_at).total_seconds())
        by = [index[c.author.user_id] for c in comments]
        commenter += by
        order_k += range(1, len(by) + 1)
        recipient += [index[r] for r in thread.recipients]
        position += [p] * len(by)
    ratings = corpus.ratings_in(slice.threads)
    return WindowEvents(
        np.array(thread_author, dtype=np.int64), np.array(first_reply_s),
        *(np.array(column, dtype=np.int64) for column in (
            position, commenter, recipient, order_k,
            [index[e.rater_id] for e, _author in ratings],
            [index[author] for _e, author in ratings],
            [e.value for e, _author in ratings])),
    )


def _pairs(n: int, src: np.ndarray, dst: np.ndarray):
    """Group rows by (src, dst).  Returns the distinct pairs sorted by
    (src, dst), each row's pair number, and the pair numbers in order of
    first occurrence (the insertion order of a dict keyed by pair)."""
    keys, first, inverse = np.unique(src * n + dst, return_index=True,
                                     return_inverse=True)
    return keys // n, keys % n, inverse, np.argsort(first)


def _receiver_normalized(n: int, src, dst, raw, first_order) -> Layer:
    """Divide each pair's weight by the total its receiver gets, adding
    that total in first-occurrence order."""
    incoming = np.bincount(dst[first_order], weights=raw[first_order],
                           minlength=n)
    return Layer(src, dst, raw / incoming[dst], ORIENT_RECEIVER)


def _empowerment(ev: WindowEvents, n: int) -> Layer:
    author = ev.thread_author[ev.position]
    others = np.flatnonzero(ev.commenter != author)
    # one row per (thread, commenter), its first comment, in row order
    first = others[np.sort(np.unique(
        ev.position[others] * n + ev.commenter[others], return_index=True)[1])]
    src, dst, inverse, first_order = _pairs(n, author[first],
                                            ev.commenter[first])
    raw = np.bincount(inverse, minlength=src.size).astype(float)
    return _receiver_normalized(n, src, dst, raw, first_order)


def _collaboration(ev: WindowEvents, n: int) -> Layer:
    keep = ev.commenter != ev.recipient
    src, dst, inverse, first_order = _pairs(n, ev.commenter[keep],
                                            ev.recipient[keep])
    raw = np.bincount(inverse, weights=comment_weight(ev.order_k[keep]),
                      minlength=src.size)
    return _receiver_normalized(n, src, dst, raw, first_order)


def _credibility(ev: WindowEvents, n: int) -> Layer:
    keep = ev.rater != ev.rated
    src, dst, inverse, first_order = _pairs(n, ev.rater[keep], ev.rated[keep])
    deltas = np.bincount(inverse, weights=ev.value[keep], minlength=src.size)
    counts = np.bincount(inverse, minlength=src.size)
    trust = 0.5 + 0.5 * (deltas / counts)
    total = np.bincount(src[first_order], weights=trust[first_order],
                        minlength=n)[src]
    # a rater whose scores are all zero spreads uniformly
    uniform = 1.0 / np.bincount(src, minlength=n)[src]
    weight = np.divide(trust, total, out=uniform, where=total > 0)
    return Layer(src, dst, weight, ORIENT_SENDER)


def events_tensor(ev: WindowEvents, n: int) -> MultiplexTensor:
    """All three layers of a window's events over ``n`` users."""
    return MultiplexTensor(
        n=n,
        empowerment=_empowerment(ev, n),
        collaboration=_collaboration(ev, n),
        credibility=_credibility(ev, n),
    )


def build_tensor(slice: WindowSlice, corpus: Corpus) -> MultiplexTensor:
    """All three layers of one window, from one walk over it."""
    return events_tensor(window_events(slice, corpus), corpus.n_users)


def union_adjacency(tensor: MultiplexTensor) -> tuple[np.ndarray, np.ndarray]:
    """Undirected union of the three layers' edge supports as the sorted
    distinct pairs (lo, hi), lo < hi (an edge of weight 0 still counts)."""
    src = np.concatenate([layer.src for _name, layer in tensor.layers()])
    dst = np.concatenate([layer.dst for _name, layer in tensor.layers()])
    keys = np.unique(np.minimum(src, dst) * tensor.n + np.maximum(src, dst))
    return keys // tensor.n, keys % tensor.n
