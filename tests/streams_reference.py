"""Reference topic chaining: ``topics.chain_streams`` as it stood when it
tested every stream it had ever made for growth at the previous window.

Kept as the oracle of ``test_streams_property.py``, which compares the
package's chaining, scored only against the streams that grew at the
previous window, with this one.
"""

from __future__ import annotations

from typing import Sequence

from leadnet.topics import Topic, cosine


def chain_streams(
    topics_per_window: Sequence[Sequence[Topic]], theta_h: float
) -> dict[str, list[tuple[int, Topic]]]:
    streams: dict[str, list[tuple[int, Topic]]] = {}
    for window, window_topics in enumerate(topics_per_window):
        ordered = sorted(window_topics, key=lambda t: t.topic_id)
        candidates = []
        for topic in ordered:
            for stream_id, entries in streams.items():
                if entries[-1][0] == window - 1:
                    sim = cosine(topic.members, entries[-1][1].members)
                    if sim >= theta_h:
                        candidates.append((-sim, topic.topic_id, stream_id, topic))
        candidates.sort(key=lambda item: item[:3])
        claimed_topics: set[str] = set()
        claimed_streams: set[str] = set()
        for _sim, topic_id, stream_id, topic in candidates:
            if topic_id not in claimed_topics and stream_id not in claimed_streams:
                streams[stream_id].append((window, topic))
                claimed_topics.add(topic_id)
                claimed_streams.add(stream_id)
        for topic in ordered:
            if topic.topic_id not in claimed_topics:
                streams[f"s{len(streams):04d}"] = [(window, topic)]
    return streams
