"""Seeded synthetic discussion logs with planted, recoverable ground truth.

``generate`` draws the JSON objects of both logs in the form ``ingest``
documents, and ``write_jsonl`` writes them one sorted-key line each; the
logs parse with no diagnostic.  A drawn user who never posts or rates
appears in no log.

Planted effects: the share of women among the users drawn, a homophily rate
p(reply lands on a woman | the replier is a woman), an activity uplift
making women author threads more often, faster replies to manager
threads, and like/dislike rates.  Replies always target the thread
author here (texts carry no mentions), so the homophily target is
planted by drawing commenter gender per thread-author-gender stratum
with Bayes-inverted probabilities that keep the overall share of
comments by women at the gender prior.  Message texts draw phrases from two disjoint
concept pools, so the topics pipeline finds exactly two planted topic
groups; ``write_lexicon_tsv`` and ``write_stopwords_txt`` write that vocabulary.

Gender-valued draws go through shuffled quota blocks of 50, so planted
proportions are hit almost exactly instead of drifting binomially; all
other draws are plain pseudo-random.  Everything derives from one seeded
generator with a fixed draw order, making logs byte-reproducible:

1. per user: role, then one shuffled gender quota over all users;
2. thread publication offsets (one uniform draw each, then sorted);
3. per thread, in time order: author gender (quota), author, concept
   pool, title, description, comment count, then per comment: commenter
   gender (quota), commenter, reply gap, text; then one rating draw per
   message (plus rater and value when it fires).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable

from .ingest import UTC, format_timestamp

ROLE_WEIGHTS = (
    ("manager", 0.10),
    ("director", 0.05),
    ("consultant", 0.45),
    ("senior_consultant", 0.25),
    ("partner", 0.05),
    ("external", 0.10),
)
START = datetime(2014, 1, 6, tzinfo=UTC)
FEMALE, MALE = 1, 0  # the log's gender codes


@dataclass(frozen=True)
class SyntheticSpec:
    n_users: int = 120
    n_threads: int = 500
    gender_prior_w: float = 0.24
    comments_mean: float = 3.0
    homophily_p_ww: float = 0.48
    women_activity_uplift: float = 1.0
    manager_latency_factor: float = 0.5
    reply_latency_mean_s: float = 14400.0
    like_rate: float = 0.15
    dislike_rate: float = 0.05
    span_days: int = 56
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_threads < 1 or self.span_days < 1:
            raise ValueError("n_users, n_threads and span_days must be >= 1")
        for name in ("gender_prior_w", "homophily_p_ww"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.comments_mean < 0.0:
            raise ValueError("comments_mean must be >= 0")
        if self.women_activity_uplift <= 0.0 or self.manager_latency_factor <= 0.0:
            raise ValueError("uplift and latency factor must be positive")
        if self.reply_latency_mean_s <= 0.0:
            raise ValueError("reply_latency_mean_s must be positive")
        if min(self.like_rate, self.dislike_rate) < 0.0 or \
                self.like_rate + self.dislike_rate > 1.0:
            raise ValueError("like_rate + dislike_rate must stay within [0, 1]")


# ---------------------------------------------------------------------------
# concept pools and the matching lexicon

STOP_TOKENS = (("di", "it"), ("del", "it"), ("delle", "it"),
               ("the", "en"), ("of", "en"), ("for", "en"))

FILLER = ("team", "update", "ciao", "grazie", "kickoff", "meeting",
          "report", "allegato", "draft", "review")


@dataclass(frozen=True)
class ConceptPool:
    name: str
    concepts: tuple[tuple[str, str, str], ...]  # (surface, concept_id, language)
    phrases: tuple[tuple[str, ...], ...]


POOLS = (
    ConceptPool(
        name="payments",
        concepts=(
            ("pagamento", "pay.payment", "it"),
            ("carta", "pay.card", "it"),
            ("credito", "pay.credit", "it"),
            ("wallet", "pay.wallet", "en"),
            ("bonifico", "pay.transfer", "it"),
            ("commissione", "pay.fee", "it"),
        ),
        phrases=(
            ("pagamento",),
            ("carta", "di", "credito"),
            ("wallet",),
            ("bonifico",),
            ("commissione", "del", "bonifico"),
            ("pagamento", "wallet"),
            ("carta",),
            ("credito",),
        ),
    ),
    ConceptPool(
        name="cloud",
        concepts=(
            ("cloud", "cld.cloud", "en"),
            ("migration", "cld.migration", "en"),
            ("platform", "cld.platform", "en"),
            ("security", "cld.security", "en"),
            ("container", "cld.container", "en"),
            ("deployment", "cld.deployment", "en"),
        ),
        phrases=(
            ("cloud", "migration"),
            ("platform",),
            ("security", "of", "the", "platform"),
            ("container", "deployment"),
            ("cloud",),
            ("migration",),
            ("deployment",),
            ("security",),
        ),
    ),
)


def write_lexicon_tsv(path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for pool in POOLS:
            for surface, concept_id, lang in pool.concepts:
                out.write(f"{surface}\t{concept_id}\t{lang}\n")


def write_stopwords_txt(path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for token, lang in STOP_TOKENS:
            out.write(f"{token}\t{lang}\n")


# ---------------------------------------------------------------------------
# generation

class _QuotaDeck:
    """Boolean draws from shuffled quota blocks whose long-run hit
    frequency is exactly p; rounding error carries into the next block."""

    BLOCK = 50

    def __init__(self, rng: random.Random, p: float):
        self.rng = rng
        self.p = p
        self.carry = 0.0
        self.deck: list[bool] = []

    def draw(self) -> bool:
        if not self.deck:
            target = self.BLOCK * self.p + self.carry
            hits = min(self.BLOCK, max(0, round(target)))
            self.carry = target - hits
            deck = [True] * hits + [False] * (self.BLOCK - hits)
            self.rng.shuffle(deck)
            self.deck = deck
        return self.deck.pop()


def _geometric(rng: random.Random, mean: float) -> int:
    """Number of failures before a success; supports mean 0."""
    if mean <= 0.0:
        return 0
    p = 1.0 / (1.0 + mean)
    u = rng.random()
    return int(math.log(1.0 - u) / math.log(1.0 - p))


def _message_text(rng: random.Random, pool: ConceptPool) -> str:
    tokens: list[str] = []
    for _ in range(rng.randint(1, 3)):
        if tokens:
            tokens.append(rng.choice(FILLER))
        tokens.extend(rng.choice(pool.phrases))
    return " ".join(tokens)


def _pick_other(rng: random.Random, n: int, avoid: int) -> int:
    at = rng.randrange(n - 1)
    return at + 1 if at >= avoid else at


def generate(spec: SyntheticSpec) -> tuple[list[dict], list[dict]]:
    """The JSON objects of the thread log and of the ratings log, each in
    log order, drawn from a SyntheticSpec; see the module docstring for
    the draw order.  Identical specs yield identical logs."""
    rng = random.Random(spec.seed)
    role_names, role_probs = zip(*ROLE_WEIGHTS)
    roles = [rng.choices(role_names, weights=role_probs)[0]
             for _ in range(spec.n_users)]
    women_quota = round(spec.n_users * spec.gender_prior_w)
    genders = [FEMALE] * women_quota + [MALE] * (spec.n_users - women_quota)
    rng.shuffle(genders)
    users = [{"user_id": f"u{i:05d}", "role": roles[i], "gender": genders[i]}
             for i in range(spec.n_users)]
    women = [i for i, gender in enumerate(genders) if gender == FEMALE]
    men = [i for i, gender in enumerate(genders) if gender == MALE]
    everyone = list(range(spec.n_users))

    def pick_by_gender(female: bool) -> int:
        pool = women if female else men
        if not pool:
            pool = everyone
        return pool[rng.randrange(len(pool))]

    uplift = spec.women_activity_uplift
    w = spec.gender_prior_w
    if 0.0 < w < 1.0:
        p_author_w = (uplift * w) / (uplift * w + (1.0 - w))
        # Commenters reply to the thread author, so the homophily rate
        # p(thread author is a woman | commenter is a woman) is planted
        # by inverting it into per-stratum commenter probabilities:
        # p(comm W | thread W) = p_ww * w / t and
        # p(comm W | thread M) = (1 - p_ww) * w / (1 - t),
        # which keep the marginal p(comm W) at the prior w.
        t = p_author_w
        comm_w_given_w = min(1.0, spec.homophily_p_ww * w / t)
        comm_w_given_m = min(1.0, (1.0 - spec.homophily_p_ww) * w / (1.0 - t))
    else:
        p_author_w = w
        comm_w_given_w = comm_w_given_m = w
    author_deck = _QuotaDeck(rng, p_author_w)
    commenter_deck_w = _QuotaDeck(rng, comm_w_given_w)
    commenter_deck_m = _QuotaDeck(rng, comm_w_given_m)

    span_s = spec.span_days * 86400
    offsets = sorted(int(rng.random() * span_s) for _ in range(spec.n_threads))

    threads: list[dict] = []
    ratings: list[dict] = []
    for ti, offset in enumerate(offsets):
        published_at = START + timedelta(seconds=offset)
        thread_id = f"t{ti:05d}"
        author_at = pick_by_gender(author_deck.draw())
        pool = POOLS[0] if rng.random() < 0.5 else POOLS[1]
        title = _message_text(rng, pool)
        description = _message_text(rng, pool)
        n_comments = _geometric(rng, spec.comments_mean)

        latency_mean = spec.reply_latency_mean_s
        if roles[author_at] == "manager":
            latency_mean *= spec.manager_latency_factor
        deck = commenter_deck_w if genders[author_at] == FEMALE \
            else commenter_deck_m

        comments: list[dict] = []
        messages = [(thread_id, author_at)]  # (message id, its author)
        at = 0.0
        for k in range(1, n_comments + 1):
            commenter_at = pick_by_gender(deck.draw())
            at += rng.expovariate(1.0 / latency_mean)
            comment_id = f"{thread_id}c{k:03d}"
            messages.append((comment_id, commenter_at))
            comments.append({"comment_id": comment_id, "text": _message_text(rng, pool),
                             "created_at": format_timestamp(
                                 published_at + timedelta(seconds=int(at))),
                             "author": users[commenter_at]})
        threads.append({"thread_id": thread_id, "title": title,
                        "description": description, "tags": [pool.name],
                        "published_at": format_timestamp(published_at),
                        "author": users[author_at], "comments": comments})

        if spec.n_users > 1:
            for message_id, message_author_at in messages:
                u = rng.random()
                if u < spec.like_rate:
                    value = 1
                elif u < spec.like_rate + spec.dislike_rate:
                    value = -1
                else:
                    continue
                rater_at = _pick_other(rng, spec.n_users, message_author_at)
                ratings.append({"rater_id": users[rater_at]["user_id"],
                                "target_id": message_id, "value": value})
    return threads, ratings


def write_jsonl(objects: Iterable[dict], path: str | Path) -> None:
    """One object a line, as JSON with sorted keys and non-ASCII text
    written as it is: the canonical form of both logs."""
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8") as out:
        for obj in objects:
            out.write(encode(obj))
            out.write("\n")
