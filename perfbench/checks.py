"""Checks on a `leadnet all` output tree, computed apart from the program.

Every expected value is rebuilt from the raw JSONL inputs with the
formulas in the project README: the layer weights come from the
plain-event builders in ``tests/oracles.py``, and windows, ratings,
analytics, brokerage and topic pools are recounted here.  Nothing from
``leadnet`` is imported, so a fault in the package cannot hide itself.

Each ``check_*`` function raises ``CheckError`` naming what differs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
from scipy import sparse

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402

LAYERS = ("empowerment", "collaboration", "credibility")
RANKINGS_HEADER = ["user_id", "gender", "role", "r_empowerment",
                   "r_collaboration", "r_credibility", "leadership",
                   "brokerage"]
KNOWN_ROLES = {"manager", "director", "consultant", "senior_consultant",
               "partner", "external"}
INPUT_FILES = ("threads.jsonl", "ratings.jsonl", "lexicon.tsv",
               "stopwords.txt")
ALPHA = 0.85          # the CLI default damping, as `all` runs here
FLOOR = 1e-12         # MprParams.epsilon_floor: zeros of x before x**beta
REL = 1e-12           # float tolerance for values recomputed in another order
MENTION = re.compile(r"@(\S+)")
TRAILING_PUNCT = ".,;:!?)('\"`>]}"


class CheckError(Exception):
    """An artifact differs from the value rebuilt from the inputs."""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-15)


def _timestamp(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def _stamp(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class Thread:
    thread_id: str
    published: datetime
    author: str
    comments: list  # (comment_id, author, created_at, text), reply order


class Raw:
    """The corpus as read straight from the JSONL files.

    Semantics follow the README: comments are ordered by (time, id) and
    clamped to the thread's publication; for each (rater, target) the
    last rating counts, value 0 is skipped, ratings of unknown messages
    are dropped; a user's first known gender and role win.
    """

    def __init__(self, corpus_dir: Path):
        self.dir = Path(corpus_dir)
        self.gender: dict[str, str | None] = {}
        self.role: dict[str, str | None] = {}
        self.threads: list[Thread] = []
        with open(self.dir / "threads.jsonl", encoding="utf-8") as handle:
            for line in handle:
                obj = json.loads(line)
                published = _timestamp(obj["published_at"])
                author = self._user(obj["author"])
                comments = []
                for c in obj["comments"]:
                    created = max(_timestamp(c["created_at"]), published)
                    comments.append((c["comment_id"], self._user(c["author"]),
                                     created, c["text"]))
                comments.sort(key=lambda c: (c[2], c[0]))
                self.threads.append(Thread(obj["thread_id"], published,
                                           author, comments))
        self.msg_author: dict[str, str] = {}
        self.msg_thread: dict[str, int] = {}
        for pos, t in enumerate(self.threads):
            self.msg_author.setdefault(t.thread_id, t.author)
            self.msg_thread.setdefault(t.thread_id, pos)
            for cid, author, _at, _text in t.comments:
                self.msg_author.setdefault(cid, author)
                self.msg_thread.setdefault(cid, pos)
        last: dict[tuple[str, str], int] = {}
        with open(self.dir / "ratings.jsonl", encoding="utf-8") as handle:
            for line in handle:
                obj = json.loads(line)
                self._note(obj["rater_id"], None, None)
                if obj["value"] != 0:
                    last[(obj["rater_id"], obj["target_id"])] = obj["value"]
        self.ratings = [(rater, target, value)
                        for (rater, target), value in last.items()
                        if target in self.msg_author]
        self.users = sorted(self.gender)
        self.index = {u: i for i, u in enumerate(self.users)}

    def _user(self, obj: dict) -> str:
        gender = {0: "male", 1: "female"}.get(obj.get("gender"))
        role = obj.get("role") if obj.get("role") in KNOWN_ROLES else None
        self._note(obj["user_id"], gender, role)
        return obj["user_id"]

    def _note(self, user: str, gender: str | None, role: str | None) -> None:
        if self.gender.get(user) is None:
            self.gender[user] = gender
        if self.role.get(user) is None:
            self.role[user] = role

    def windows(self, spec: str) -> list[tuple[datetime, list[int]]]:
        """(start, thread positions) per window of a week or days:N grid,
        anchored at the Monday or the day holding the first thread."""
        first = min(t.published for t in self.threads)
        last = max(t.published for t in self.threads)
        day = first.replace(hour=0, minute=0, second=0, microsecond=0)
        if spec == "week":
            anchor, width = day - timedelta(days=day.weekday()), timedelta(7)
        elif spec.startswith("days:"):
            anchor, width = day, timedelta(int(spec.split(":", 1)[1]))
        else:
            raise ValueError(f"checks support week and days:N, not {spec!r}")
        count = (last - anchor) // width + 1
        members: list[list[int]] = [[] for _ in range(count)]
        for pos, t in enumerate(self.threads):
            members[(t.published - anchor) // width].append(pos)
        return [(anchor + k * width, m) for k, m in enumerate(members)]

    def layers(self, positions: list[int]) -> dict[str, dict]:
        """The three layer weight maps over the given threads, keyed by
        (src id, dst id)."""
        chosen = set(positions)
        events = [(self.threads[p].author,
                   [(c[1], c[3]) for c in self.threads[p].comments])
                  for p in positions]
        ratings = [(rater, self.msg_author[target], value)
                   for rater, target, value in self.ratings
                   if self.msg_thread[target] in chosen]
        return {
            "empowerment": oracles.empowerment_weights(events),
            "collaboration": oracles.collaboration_weights(events, resolve),
            "credibility": oracles.credibility_weights(ratings),
        }


def resolve(text: str, author: str, prior: list[str]) -> str:
    """README rule: the first @-mention naming an active participant,
    else the thread author."""
    for match in MENTION.finditer(text):
        token = match.group(1)
        while token:
            if token in prior:
                return token
            stripped = token.rstrip(TRAILING_PUNCT)
            if stripped == token:
                break
            token = stripped
    return author


def _read_csv(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckError(f"{path.name} is missing")
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


# ---------------------------------------------------------------------------
# edges.csv

def check_edges(tree: Path, raw: Raw, spec: str) -> None:
    """edges.csv holds the whole-span weights, layer by layer, sorted."""
    rows = _read_csv(tree / "edges.csv")
    if rows[0] != ["src", "dst", "weight", "layer"]:
        raise CheckError(f"edges.csv header {rows[0]}")
    weights = raw.layers(list(range(len(raw.threads))))
    want = [(name, src, dst, w)
            for name in LAYERS
            for (src, dst), w in sorted(weights[name].items())]
    if len(rows) - 1 != len(want):
        raise CheckError(f"edges.csv has {len(rows) - 1} edges, "
                         f"expected {len(want)}")
    for row, (name, src, dst, w) in zip(rows[1:], want):
        if (row[3], row[0], row[1]) != (name, src, dst) \
                or not _close(float(row[2]), w):
            raise CheckError(f"edges.csv row {row} != {(src, dst, w, name)}")


# ---------------------------------------------------------------------------
# rankings_wNNN.csv

def _matrix(n: int, index: dict, weights: dict, along: bool):
    """M[gainer, giver]: rank flows against stored edges, or along them
    (credibility)."""
    if not weights:
        return sparse.csr_matrix((n, n))
    src = [index[s] for s, _d in weights]
    dst = [index[d] for _s, d in weights]
    rows, cols = (dst, src) if along else (src, dst)
    return sparse.csr_matrix((list(weights.values()), (rows, cols)),
                             shape=(n, n))


def chained_step(n: int, index: dict, weights: dict, vectors: dict) -> dict:
    """L1 move of each written vector under one more step of the chained
    update (alpha 0.85, beta = gamma = 1)."""
    moves = {}
    prev = None
    for name in LAYERS:
        r = vectors[name]
        m = _matrix(n, index, weights[name], along=name == "credibility")
        if prev is None:
            walk, teleport = 1.0, np.full(n, (1.0 - ALPHA) / n)
        else:
            x = np.where(prev <= 0.0, FLOOR, prev)
            walk, teleport = x, (1.0 - ALPHA) * x / x.sum()
        nxt = ALPHA * walk * (m @ r) + teleport
        nxt /= nxt.sum()
        moves[name] = float(np.abs(nxt - r).sum())
        prev = r
    return moves


def expected_brokerage(n: int, index: dict, weights: dict) -> np.ndarray:
    """C(d, 2) minus triangles through each user on the undirected union
    of the layers, as a probability vector."""
    pairs = [(index[s], index[d]) for w in weights.values() for s, d in w]
    if not pairs:
        return np.full(n, 1.0 / n)
    src, dst = np.array(pairs).T
    a = sparse.csr_matrix((np.ones(2 * len(src)),
                           (np.r_[src, dst], np.r_[dst, src])), shape=(n, n))
    a.data[:] = 1.0
    degree = np.asarray(a.sum(axis=1)).ravel()
    triangles = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2
    raw = degree * (degree - 1) / 2 - triangles
    total = raw.sum()
    return raw / total if total > 0 else np.full(n, 1.0 / n)


def _rankings(path: Path, raw: Raw) -> tuple[list[list[str]], dict]:
    rows = _read_csv(path)
    if rows[0] != RANKINGS_HEADER:
        raise CheckError(f"{path.name} header {rows[0]}")
    rows = rows[1:]
    if sorted(r[0] for r in rows) != raw.users:
        raise CheckError(f"{path.name} does not list every user once")
    order = [raw.index[r[0]] for r in rows]
    vectors = {}
    for col, name in enumerate(LAYERS + ("leadership", "brokerage"), start=3):
        v = np.empty(len(rows))
        v[order] = [float(r[col]) for r in rows]
        vectors[name] = v
    return rows, vectors


def check_rankings(tree: Path, raw: Raw, spec: str, tol: float) -> None:
    """Per window: probability vectors, sort order, leadership equal to the
    last layer, one more chained step moving less than tol, brokerage
    equal to the rebuilt count."""
    n = len(raw.users)
    windows = raw.windows(spec)
    names = sorted(p.name for p in tree.glob("rankings_w*.csv"))
    if names != [f"rankings_w{k:03d}.csv" for k in range(len(windows))]:
        raise CheckError(f"rankings files {names[:3]}... do not match "
                         f"{len(windows)} windows")
    for k, (_start, positions) in enumerate(windows):
        path = tree / f"rankings_w{k:03d}.csv"
        rows, vectors = _rankings(path, raw)
        for name, v in vectors.items():
            if v.min() < 0 or abs(v.sum() - 1.0) > 1e-9:
                raise CheckError(f"{path.name}: {name} is not a probability "
                                 f"vector (sum {float(v.sum())!r})")
        if not np.array_equal(vectors["leadership"], vectors[LAYERS[-1]]):
            raise CheckError(f"{path.name}: leadership != {LAYERS[-1]}")
        keys = [(-float(r[6]), r[0]) for r in rows]
        if keys != sorted(keys):
            raise CheckError(f"{path.name}: rows not sorted by leadership, id")
        for r in rows:
            want = (raw.gender[r[0]] or "unknown", raw.role[r[0]] or "unknown")
            if (r[1], r[2]) != want:
                raise CheckError(f"{path.name}: {r[0]} has {r[1:3]}, "
                                 f"expected {list(want)}")
        weights = raw.layers(positions)
        for name, move in chained_step(n, raw.index, weights, vectors).items():
            if not move < tol:
                raise CheckError(f"{path.name}: one more {name} step moves "
                                 f"{move:.3e} >= tol {tol:g}")
        want = expected_brokerage(n, raw.index, weights)
        bad = ~np.isclose(vectors["brokerage"], want, rtol=REL, atol=1e-15)
        if bad.any():
            user = raw.users[int(np.flatnonzero(bad)[0])]
            raise CheckError(f"{path.name}: brokerage of {user} differs "
                             f"from the rebuilt count")


# ---------------------------------------------------------------------------
# analytics.csv

def expected_analytics(raw: Raw, spec: str) -> dict:
    """(window start, metric, group) -> (value or None, count) for the
    homophily, prior and response-latency rows."""
    want = {}
    for start, positions in raw.windows(spec):
        stamp = _stamp(start)
        same = {"female": 0, "male": 0}
        total = {"female": 0, "male": 0}
        authored = {"female": 0, "male": 0}
        latency: dict[str, list[float]] = {}
        replies: dict[str, int] = {}
        for p in positions:
            t = raw.threads[p]
            prior = [t.author]
            for _cid, commenter, _at, text in t.comments:
                recipient = resolve(text, t.author, prior)
                if commenter not in prior:
                    prior.append(commenter)
                g, rg = raw.gender[commenter], raw.gender[recipient]
                if g is None or rg is None:
                    continue
                total[g] += 1
                same[g] += g == rg
            g = raw.gender[t.author]
            groups = []
            if g is not None:
                authored[g] += 1
                groups.append(f"gender:{g}")
            if raw.role[t.author] is not None:
                groups.append(f"role:{raw.role[t.author]}")
            for group in groups:
                replies[group] = replies.get(group, 0) + len(t.comments)
                gaps = latency.setdefault(group, [])
                if t.comments:
                    gaps.append((t.comments[0][2] - t.published).total_seconds())
        known = authored["female"] + authored["male"]

        def rate(num, den):
            return num / den if den else None

        want[(stamp, "homophily_p_ww", "")] = (
            rate(same["female"], total["female"]), total["female"])
        want[(stamp, "homophily_p_mm", "")] = (
            rate(same["male"], total["male"]), total["male"])
        want[(stamp, "prior_w", "")] = (rate(authored["female"], known), known)
        want[(stamp, "prior_m", "")] = (rate(authored["male"], known), known)
        for group, gaps in latency.items():
            want[(stamp, "response_latency_mean_s", group)] = (
                sum(gaps) / len(gaps) if gaps else None, replies[group])
    return want


def check_analytics(tree: Path, raw: Raw, spec: str) -> None:
    rows = _read_csv(tree / "analytics.csv")
    if rows[0] != ["window_start", "metric", "group", "value", "count"]:
        raise CheckError(f"analytics.csv header {rows[0]}")
    want = expected_analytics(raw, spec)
    metrics = {metric for _s, metric, _g in want}
    got = {(r[0], r[1], r[2]): (r[3], r[4]) for r in rows[1:]
           if r[1] in metrics}
    if set(got) != set(want):
        extra = sorted(set(got) ^ set(want))[:3]
        raise CheckError(f"analytics.csv rows differ, e.g. {extra}")
    for key, (value, count) in want.items():
        text, got_count = got[key]
        ok = text == "" if value is None else (
            text != "" and _close(float(text), value))
        if not ok or got_count != str(count):
            raise CheckError(f"analytics.csv {key}: {got[key]}, expected "
                             f"{(value, count)}")


# ---------------------------------------------------------------------------
# topics.json

def planted_pools(corpus_dir: Path):
    """A function mapping an n-gram to the planted pool (concept-id prefix
    in lexicon.tsv) of all its non-connector tokens, or None when they
    disagree."""
    pools = {}
    for line in (corpus_dir / "lexicon.tsv").read_text("utf-8").splitlines():
        surface, concept, *_lang = line.split("\t")
        pools[surface] = concept.split(".", 1)[0]
    stops = {line.split("\t")[0] for line in
             (corpus_dir / "stopwords.txt").read_text("utf-8").splitlines()}

    def pool_of(gram: str) -> str | None:
        found = {pools.get(token) for token in gram.split("_")
                 if token not in stops}
        return found.pop() if len(found) == 1 else None
    return pool_of


def check_topics(tree: Path, raw: Raw, spec: str) -> None:
    """Exactly two streams, each pure to one planted pool, and the two
    pools differ."""
    rows = json.loads((tree / "topics.json").read_text("utf-8"))
    streams: dict[str, set] = {}
    for row in rows:
        streams.setdefault(row["stream_id"], set()).update(
            m["ngram"] for m in row["members"])
    if len(streams) != 2:
        raise CheckError(f"topics.json has {len(streams)} streams, expected 2")
    pool_of = planted_pools(raw.dir)
    pools = []
    for stream_id, grams in sorted(streams.items()):
        found = {pool_of(g) for g in grams}
        if len(found) != 1 or None in found:
            raise CheckError(f"stream {stream_id} mixes pools {found}")
        pools.append(found.pop())
    if pools[0] == pools[1]:
        raise CheckError(f"both streams come from pool {pools[0]}")


# ---------------------------------------------------------------------------
# manifest.json

def check_manifest(tree: Path, raw: Raw, spec: str) -> None:
    """The artifact list names exactly the files present, and each input
    digest is the SHA-256 of that input."""
    manifest = json.loads((tree / "manifest.json").read_text("utf-8"))
    present = sorted(p.name for p in tree.iterdir() if p.name != "manifest.json")
    if manifest["artifacts"] != present:
        raise CheckError("manifest.json artifacts differ from the files "
                         "present")
    want = {name: hashlib.sha256((raw.dir / name).read_bytes()).hexdigest()
            for name in INPUT_FILES}
    if manifest["inputs"] != want:
        raise CheckError("manifest.json input digests differ")
    if manifest["config"]["window"] != spec:
        raise CheckError(f"manifest.json window {manifest['config']['window']}")


CHECKS = {
    "edges": check_edges,
    "rankings": lambda tree, raw, spec: check_rankings(tree, raw, spec, 1e-9),
    "analytics": check_analytics,
    "topics": check_topics,
    "manifest": check_manifest,
}


def check_tree(tree: Path, raw: Raw, spec: str) -> None:
    """Run every check; raises CheckError naming the first that fails."""
    for name, check in CHECKS.items():
        try:
            check(tree, raw, spec)
        except CheckError as exc:
            raise CheckError(f"{name}: {exc}") from exc


def tree_digest(tree: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of a tree."""
    digest = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(tree)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
