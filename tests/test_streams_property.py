"""``topics.chain_streams`` against the reference chaining kept in
``streams_reference.py``, over drawn windows of topics.

The draws favour the cases where a shortcut would show: topics with
identical member maps (exact cosine ties between topics and between
streams), empty windows (gaps that end every stream), topics that
never chain, and ``theta_h`` at 0, where every pair is a candidate, and
at 1, where almost none is.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import streams_reference  # noqa: E402
from leadnet.topics import Topic, chain_streams  # noqa: E402

# few n-grams and small counts, so member maps repeat and cosines tie
MEMBER_MAPS = st.dictionaries(st.sampled_from("abcdef"),
                              st.integers(min_value=1, max_value=3),
                              min_size=2, max_size=4)


@st.composite
def windows(draw):
    shared = draw(st.lists(MEMBER_MAPS, min_size=1, max_size=4))
    members = st.one_of(st.sampled_from(shared), MEMBER_MAPS)
    per_window = []
    for w in range(draw(st.integers(min_value=0, max_value=8))):
        maps = draw(st.lists(members, max_size=4))
        per_window.append([Topic(topic_id=f"w{w:03d}.t{t:03d}", members=m)
                           for t, m in enumerate(maps)])
    return per_window


def as_ids(streams):
    """The streams in creation order, each topic by its id and members."""
    return [(stream_id, [(window, topic.topic_id, topic.members)
                         for window, topic in entries])
            for stream_id, entries in streams.items()]


@settings(max_examples=400, deadline=None)
@given(windows(), st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
def test_chaining_matches_reference(per_window, theta_h):
    assert as_ids(chain_streams(per_window, theta_h)) == as_ids(
        streams_reference.chain_streams(per_window, theta_h))


def test_a_gap_or_a_topic_that_chains_nowhere_ends_its_stream():
    keep = {"a": 1, "b": 1}
    per_window = [[Topic("w000.t000", keep), Topic("w000.t001", {"c": 1, "d": 1})],
                  [Topic("w001.t000", keep)],
                  [],
                  [Topic("w003.t000", keep)]]
    assert as_ids(chain_streams(per_window, 0.3)) == as_ids(
        streams_reference.chain_streams(per_window, 0.3))
    assert [[w for w, _t in entries]
            for entries in chain_streams(per_window, 0.3).values()] \
        == [[0, 1], [0], [3]]
