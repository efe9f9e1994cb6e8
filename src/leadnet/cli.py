"""Command line front end.

Subcommands cover the full pipeline: ``synth`` writes a seeded corpus,
``ingest`` validates and summarizes logs, ``rank``/``topics``/``analytics``
compute one artifact family each, ``export-graph`` dumps the network, and
``all`` produces every artifact in one pass.

Each option is declared once, in ``SETTINGS``, and its value resolves
with precedence: command line flag, then ``LEADNET_<NAME>`` environment
variable, then a ``--config`` JSON file, then the default, which comes
from the config dataclass that owns the option (``MprParams``,
``TopicConfig``, ``SyntheticSpec``) where there is one.  A command
resolves only the options it takes and ignores environment variables and
config entries for the others.  Every run writes ``manifest.json`` recording
the tool version, resolved semantic options, input digests and artifact
names; it deliberately excludes timestamps and paths so reruns of the
same inputs produce byte-identical output trees.

Exit codes: 0 on success, 1 on runtime failures (unreadable or corrupt
inputs, non-convergence), 2 on bad usage or bad option values.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .analytics import analytics_rows, role_subgraph, user_codes
from .export import (
    write_analytics_csv,
    write_edges_csv,
    write_graph_dot,
    write_rankings_csv,
    write_role_graph_dot,
)
from .ingest import (
    Corpus,
    IngestError,
    Role,
    WindowConfig,
    WindowSlice,
    build_corpus,
    decode_role,
    format_timestamp,
    parse_ratings,
    parse_thread_log,
    whole_span_slice,
    window_partition,
    write_ratings_jsonl,
    write_threads_jsonl,
)
from .multiplex import build_tensor, events_tensor, window_events
from .rank import ConvergenceError, MprParams, brokerage, multiplex_pagerank
from .synth import (
    ROLE_WEIGHTS,
    START,
    SyntheticSpec,
    generate,
    write_lexicon_tsv,
    write_stopwords_txt,
)
from .topics import (
    TopicConfig,
    chain_streams,
    load_lexicon,
    topic_network,
    topics_in_window,
    write_topics_json,
)

ENV_PREFIX = "LEADNET_"


class UsageError(Exception):
    """Bad flags, bad option values, or missing required inputs."""


# ---------------------------------------------------------------------------
# option resolution

def _int(value: object) -> int:
    try:
        return int(str(value))
    except ValueError as exc:
        raise UsageError(f"expected an integer, got {value!r}") from exc


def _positive_int(value: object) -> int:
    number = _int(value)
    if number < 1:
        raise UsageError(f"expected an integer >= 1, got {value!r}")
    return number


def _float(value: object) -> float:
    try:
        number = float(str(value))
    except ValueError as exc:
        raise UsageError(f"expected a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise UsageError(f"expected a finite number, got {value!r}")
    return number


def _window(value: object) -> WindowConfig:
    try:
        return WindowConfig.from_string(str(value))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _format(value: object) -> str:
    text = str(value)
    if text not in ("jsonl", "csv"):
        raise UsageError(f"format must be jsonl or csv, got {text!r}")
    return text


def _items(value: object) -> list[str]:
    """A list option given as a JSON list or a comma-separated string."""
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [p.strip() for p in str(value).split(",") if p.strip()]


def _alpha(value: object) -> tuple[float, ...]:
    """One value stands for all three layers; ``MprParams`` checks the count."""
    vals = tuple(_float(p) for p in _items(value))
    return vals * 3 if len(vals) == 1 else vals


def _layer_order(value: object) -> tuple[str, ...]:
    return tuple(_items(value))


def _roles(value: object) -> tuple[Role, ...]:
    """The named roles, each once, sorted by value."""
    roles = set()
    for name in _items(value):
        role = decode_role(name)
        if role is None or role is Role.unknown:
            raise UsageError(f"unknown role {name!r}")
        roles.add(role)
    if not roles:
        raise UsageError("role filter must name at least one role")
    return tuple(sorted(roles, key=lambda role: role.value))


# name -> (caster, default, help); every option flows through this table
# so the flag > environment > config file > default precedence is uniform.
# A default that a config dataclass owns is read from that class.
SETTINGS: dict[str, tuple[Callable[[object], object], object, str]] = {
    "input": (str, None,
              "thread log to read (JSONL, or CSV with --format csv)"),
    "ratings": (str, None, "ratings log to read (JSONL)"),
    "lexicon": (str, None,
                "concept lexicon TSV (surface, concept id, language)"),
    "stopwords": (str, None, "stopword list, one token per line"),
    "out": (str, None, "output directory (created if missing)"),
    "format": (_format, "jsonl", "thread log format: jsonl or csv"),
    "window": (_window, WindowConfig("month"), "window length: week, month, or days:N"),
    "alpha": (_alpha, MprParams.alpha,
              "damping per layer: one value or three comma-separated"),
    "beta": (_float, MprParams.beta,
             "exponent coupling the walk to the previous layer"),
    "gamma": (_float, MprParams.gamma,
              "exponent coupling teleportation to the previous layer"),
    "layer_order": (_layer_order, MprParams.layer_order,
                    "comma-separated layer evaluation order"),
    "tol": (_float, MprParams.tol,
            "convergence threshold on the L1 step change"),
    "max_iter": (_int, MprParams.max_iter, "maximum iterations per layer"),
    "min_freq": (_int, TopicConfig.min_freq,
                 "minimum n-gram frequency for topic vertices"),
    "theta_v": (_float, TopicConfig.theta_v,
                "cosine threshold for merging topics within a window"),
    "theta_h": (_float, TopicConfig.theta_h,
                "cosine threshold for chaining topics across windows"),
    "top_k": (_positive_int, None,
              "head size for concentration stats (default: decile)"),
    "role": (_roles, None, "comma-separated role filter"),
    "seed": (_int, SyntheticSpec.seed, "random seed"),
    "jobs": (_positive_int, 1, "no effect: windows run serially"),
    "window_index": (_int, None, "window to operate on (0-based)"),
    "stream": (str, None, "topic stream id to export a network for"),
    "n_users": (_int, SyntheticSpec.n_users,
                "synthetic corpus: number of users"),
    "n_threads": (_int, SyntheticSpec.n_threads,
                  "synthetic corpus: number of threads"),
    "comments_mean": (_float, SyntheticSpec.comments_mean,
                      "synthetic corpus: mean comments per thread"),
    "gender_prior_w": (_float, SyntheticSpec.gender_prior_w,
                       "synthetic corpus: share of women among users"),
    "homophily_p_ww": (_float, SyntheticSpec.homophily_p_ww,
                       "synthetic corpus: p(reply target is a woman | "
                       "replier is a woman)"),
    "uplift": (_float, SyntheticSpec.women_activity_uplift,
               "synthetic corpus: women's thread-authoring uplift"),
    "manager_latency_factor": (_float, SyntheticSpec.manager_latency_factor,
                               "synthetic corpus: reply latency scale "
                               "for manager threads"),
    "reply_latency_mean_s": (_float, SyntheticSpec.reply_latency_mean_s,
                             "synthetic corpus: mean reply latency "
                             "in seconds"),
    "like_rate": (_float, SyntheticSpec.like_rate,
                  "synthetic corpus: p(message receives a like)"),
    "dislike_rate": (_float, SyntheticSpec.dislike_rate,
                     "synthetic corpus: p(message receives a dislike)"),
    "span_days": (_int, SyntheticSpec.span_days,
                  "synthetic corpus: days covered by the corpus"),
}


def _load_config_file(path: str | None) -> dict:
    """The options of the ``--config`` file, read as UTF-8 with a leading
    byte-order mark dropped, as the inputs are.  A file that cannot be
    read, decoded or used is a UsageError naming it."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            data = json.load(handle)
        json.dumps(data, ensure_ascii=False).encode()  # a lone surrogate fails
    except OSError as exc:
        raise UsageError(f"config file {path}: cannot read ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8, digits, depth
        raise UsageError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    unknown = sorted(set(data) - set(SETTINGS))
    if unknown:
        raise UsageError(f"config file {path}: unknown options {unknown}")
    return data


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# config dataclass field -> its option, where the two names differ
_OPTION_OF = {"women_activity_uplift": "uplift"}


def _from_options(cls: type, resolved: dict):
    """A config dataclass built from the resolved options of its fields,
    each of which is an option.  A value the class rejects on its own is
    a usage error naming its option, and so is a combination it rejects."""
    options = {f.name: _OPTION_OF.get(f.name, f.name) for f in dataclasses.fields(cls)}
    values = {field: resolved[option] for field, option in options.items()}
    for field, value in values.items():
        try:
            cls(**{field: value})
        except ValueError as exc:
            raise UsageError(f"{_flag(options[field])}: {exc}") from exc
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# resolved-settings key -> the config dataclass built there from its options
_CONFIGS = {"mpr_params": MprParams, "topic_config": TopicConfig,
            "synth_spec": SyntheticSpec}


def resolve_settings(args: argparse.Namespace) -> dict:
    """Resolve the options the command takes, and build the config
    dataclasses whose options it takes, so that every bad value fails
    before any input is read.  Environment variables and config entries
    for the other options are ignored."""
    file_values = _load_config_file(
        args.config or os.environ.get(ENV_PREFIX + "CONFIG"))
    resolved = {}
    for name in COMMAND_OPTIONS[args.command]:
        caster, default, _help = SETTINGS[name]
        value = getattr(args, name)
        if value is None:
            value = os.environ.get(ENV_PREFIX + name.upper())
        if value is None:
            value = file_values.get(name)
        if value is None:
            resolved[name] = default
        else:
            try:
                resolved[name] = caster(value)
            except UsageError as exc:
                raise UsageError(f"{_flag(name)}: {exc}") from exc
    for key, cls in _CONFIGS.items():
        if dataclasses.fields(cls)[0].name in resolved:
            resolved[key] = _from_options(cls, resolved)
    return resolved


def _require(cfg: dict, name: str) -> str:
    value = cfg.get(name)
    if value is None:
        raise UsageError(f"{_flag(name)} is required")
    return value


# ---------------------------------------------------------------------------
# run context and manifest

class RunContext:
    """Tracks artifacts under the output directory, which it creates if
    missing; a failed run removes whatever it had already written, and the
    directory too when the run created it and left it empty."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.created = not out_dir.exists()
        out_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[str] = []

    def path(self, name: str) -> Path:
        if name not in self.artifacts:
            self.artifacts.append(name)
        return self.out_dir / name

    def discard_partial(self) -> None:
        for name in self.artifacts:
            target = self.out_dir / name
            if target.exists():
                target.unlink()
        if self.created and not any(self.out_dir.iterdir()):
            self.out_dir.rmdir()


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    """``payload`` as JSON indented by 2 with sorted keys, then a newline;
    a role is written as its value and a window as its CLI form."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True,
                  default=lambda o: o.value if isinstance(o, Role) else str(o))
        handle.write("\n")


def write_manifest(ctx: RunContext, command: str, cfg: dict) -> None:
    inputs = {}
    for key in ("input", "ratings", "lexicon", "stopwords"):
        value = cfg.get(key)
        if value is not None:
            inputs[Path(value).name] = _sha256(value)
    manifest = {
        "tool": "leadnet",
        "version": __version__,
        "command": command,
        "config": {key: cfg[key] for key in MANIFEST_KEYS[command]},
        "inputs": inputs,
        "artifacts": sorted(self_name for self_name in ctx.artifacts
                            if self_name != "manifest.json"),
    }
    _write_json(ctx.path("manifest.json"), manifest)


# ---------------------------------------------------------------------------
# shared pipeline pieces

@contextmanager
def _collector_paused():
    """No automatic collection inside the block, which allocates many
    long-lived objects and no reference cycles; the caller's collector
    state is restored after it.  On success every object then tracked is
    frozen, so later collections skip it, until the caller calls
    ``gc.unfreeze()`` (``main`` does on exit).  A full collection runs
    first, so no garbage made before the block is frozen."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def _load_corpus(cfg: dict) -> tuple[Corpus, list[str]]:
    """The corpus and its diagnostics, left frozen by the collector pause:
    a caller other than ``main`` calls ``gc.unfreeze()`` when done."""
    threads, diags = parse_thread_log(_require(cfg, "input"),
                                      format=cfg["format"])
    ratings = []
    if cfg["ratings"] is not None:
        ratings, rating_diags = parse_ratings(cfg["ratings"])
        diags.extend(rating_diags)
    corpus, corpus_diags = build_corpus(threads, ratings)
    diags.extend(corpus_diags)
    return corpus, diags


def _slices(corpus: Corpus, cfg: dict) -> list[WindowSlice]:
    try:
        return window_partition(corpus, cfg["window"])
    except OverflowError:
        raise UsageError(f"--window: {cfg['window']} windows run past the year 9999") from None


def _print_diags(diags: Sequence[str]) -> None:
    for line in diags:
        print(f"note: {line}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

def cmd_synth(cfg: dict, ctx: RunContext) -> None:
    spec = cfg["synth_spec"]
    try:
        corpus = generate(spec)
    except (OverflowError, ZeroDivisionError) as exc:
        raise UsageError(f"--comments-mean, --uplift, --reply-latency-mean-s,"
                         f" --manager-latency-factor or --span-days is too"
                         f" extreme to draw a corpus ({exc})") from None
    write_threads_jsonl(corpus.threads, ctx.path("threads.jsonl"))
    write_ratings_jsonl(corpus.ratings, ctx.path("ratings.jsonl"))
    write_lexicon_tsv(ctx.path("lexicon.tsv"))
    write_stopwords_txt(ctx.path("stopwords.txt"))
    payload = {**dataclasses.asdict(spec), "role_weights": ROLE_WEIGHTS,
               "start": format_timestamp(START)}
    _write_json(ctx.path("synth_spec.json"), payload)


def cmd_ingest(cfg: dict, ctx: RunContext) -> None:
    corpus, diags = _load_corpus(cfg)
    slices = _slices(corpus, cfg)
    span = whole_span_slice(corpus)
    summary = {
        "users": len(corpus.users),
        "threads": len(corpus.threads),
        "comments": sum(len(t.comments) for t in corpus.threads),
        "ratings": len(corpus.ratings),
        "span": {
            "start": format_timestamp(span.start),
            "end": format_timestamp(span.end),
        },
        "windows": [
            {
                "index": s.index,
                "start": format_timestamp(s.start),
                "end": format_timestamp(s.end),
                "threads": len(s.threads),
                "ratings": len(corpus.ratings_in(s.threads)),
            }
            for s in slices
        ],
        "diagnostics": len(diags),
    }
    _write_json(ctx.path("corpus_summary.json"), summary)
    with open(ctx.path("diagnostics.txt"), "w", encoding="utf-8") as handle:
        for line in diags:
            handle.write(line + "\n")


def _ranked_windows(cfg: dict, with_brokerage: bool, with_analytics: bool):
    """Load and tile the corpus, then walk and rank each window once; from
    the same walk, score its brokerage when ``with_brokerage`` and make its
    analytics rows when ``with_analytics`` (else None).  No artifact is
    written before every window is ranked, so a window that fails to
    converge costs no writer work; its events and tensor are then dropped."""
    corpus, diags = _load_corpus(cfg)
    _print_diags(diags)
    slices = _slices(corpus, cfg)
    codes = user_codes(corpus) if with_analytics else None

    def work(window_slice):
        events = window_events(window_slice, corpus)
        tensor = events_tensor(events, corpus.n_users)
        try:
            result = multiplex_pagerank(tensor, cfg["mpr_params"])
        except ConvergenceError as exc:
            where = f"window {window_slice.index} ({format_timestamp(window_slice.start)})"
            raise ConvergenceError(f"{where}: {exc}") from None
        return (result, brokerage(tensor) if with_brokerage else None,
                analytics_rows(format_timestamp(window_slice.start), events,
                               result.leadership.scores, codes, cfg["top_k"])
                if with_analytics else None)

    return corpus, slices, [work(s) for s in slices]


def _write_window_rankings(ctx, corpus, slices, ranked):
    for window_slice, (result, broker, _rows) in zip(slices, ranked):
        name = f"rankings_w{window_slice.index:03d}.csv"
        write_rankings_csv(ctx.path(name), corpus, result, broker)


def cmd_rank(cfg: dict, ctx: RunContext) -> None:
    corpus, slices, ranked = _ranked_windows(cfg, with_brokerage=True,
                                             with_analytics=False)
    _write_window_rankings(ctx, corpus, slices, ranked)


def _window_at(slices: Sequence[WindowSlice], index: int) -> WindowSlice:
    if not 0 <= index < len(slices):
        raise UsageError(
            f"window index {index} out of range (have {len(slices)} windows)"
        )
    return slices[index]


def _topic_streams(slices, lexicon, cfg):
    topic_cfg = cfg["topic_config"]
    per_window = [topics_in_window(s, lexicon, topic_cfg) for s in slices]
    return chain_streams(per_window, topic_cfg.theta_h)


def cmd_topics(cfg: dict, ctx: RunContext) -> None:
    if cfg["stream"] is not None and cfg["window_index"] is None:
        raise UsageError("--stream needs --window-index")
    if cfg["window_index"] is not None and cfg["stream"] is None:
        raise UsageError("--window-index needs --stream")
    lexicon = load_lexicon(_require(cfg, "lexicon"), cfg["stopwords"])
    corpus, diags = _load_corpus(cfg)
    _print_diags(diags)
    slices = _slices(corpus, cfg)
    streams = _topic_streams(slices, lexicon, cfg)
    write_topics_json(streams, ctx.path("topics.json"))
    if cfg["stream"] is None:
        return
    window = _window_at(slices, cfg["window_index"])
    wanted = [s for s in streams if s.stream_id == cfg["stream"]]
    if not wanted:
        raise UsageError(f"no stream named {cfg['stream']!r}")
    try:
        filtered = topic_network(wanted[0], window, lexicon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    tensor = build_tensor(filtered, corpus)
    name = f"stream_{cfg['stream']}_w{window.index:03d}_edges.csv"
    write_edges_csv(ctx.path(name), tensor, corpus)


def cmd_analytics(cfg: dict, ctx: RunContext) -> None:
    ranked = _ranked_windows(cfg, with_brokerage=False, with_analytics=True)[2]
    write_analytics_csv(ctx.path("analytics.csv"),
                        [row for *_ranks, rows in ranked for row in rows])


def cmd_export_graph(cfg: dict, ctx: RunContext) -> None:
    corpus, diags = _load_corpus(cfg)
    _print_diags(diags)
    if cfg["window_index"] is None:
        window_slice = whole_span_slice(corpus)
    else:
        window_slice = _window_at(_slices(corpus, cfg), cfg["window_index"])
    tensor = build_tensor(window_slice, corpus)
    write_edges_csv(ctx.path("edges.csv"), tensor, corpus)
    write_graph_dot(ctx.path("graph.dot"), tensor, corpus)
    if cfg["role"] is not None:
        subgraph, warnings = role_subgraph(tensor, corpus, cfg["role"])
        for line in warnings:
            print(f"warning: {line}", file=sys.stderr)
        write_role_graph_dot(ctx.path("role_graph.dot"), subgraph, corpus)


def cmd_all(cfg: dict, ctx: RunContext) -> None:
    if cfg["stopwords"] is not None and cfg["lexicon"] is None:
        raise UsageError("--stopwords needs --lexicon")
    # a bad lexicon fails the run before any window is ranked
    lexicon = (None if cfg["lexicon"] is None
               else load_lexicon(cfg["lexicon"], cfg["stopwords"]))
    corpus, slices, ranked = _ranked_windows(cfg, with_brokerage=True,
                                             with_analytics=True)
    _write_window_rankings(ctx, corpus, slices, ranked)
    write_analytics_csv(ctx.path("analytics.csv"),
                        [row for *_ranks, rows in ranked for row in rows])
    if lexicon is not None:
        write_topics_json(_topic_streams(slices, lexicon, cfg), ctx.path("topics.json"))
    tensor = build_tensor(whole_span_slice(corpus), corpus)
    write_edges_csv(ctx.path("edges.csv"), tensor, corpus)
    write_graph_dot(ctx.path("graph.dot"), tensor, corpus)


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "rank": cmd_rank,
    "topics": cmd_topics,
    "analytics": cmd_analytics,
    "export-graph": cmd_export_graph,
    "all": cmd_all,
}


# ---------------------------------------------------------------------------
# parser

_SYNTH_OPTS = ("seed", "n_users", "n_threads", "comments_mean",
               "gender_prior_w", "homophily_p_ww", "uplift",
               "manager_latency_factor", "reply_latency_mean_s",
               "like_rate", "dislike_rate", "span_days")
_INPUT_OPTS = ("input", "ratings", "format")
_RANK_OPTS = ("alpha", "beta", "gamma", "layer_order", "tol", "max_iter")
_TOPIC_OPTS = ("lexicon", "stopwords", "min_freq", "theta_v", "theta_h")
_COMMON = ("out",)

COMMAND_OPTIONS = {
    "synth": _COMMON + _SYNTH_OPTS,
    "ingest": _COMMON + _INPUT_OPTS + ("window",),
    "rank": _COMMON + _INPUT_OPTS + ("window", "jobs") + _RANK_OPTS,
    "topics": _COMMON + _INPUT_OPTS + ("window", "jobs") + _TOPIC_OPTS
              + ("stream", "window_index"),
    "analytics": _COMMON + _INPUT_OPTS + ("window", "jobs") + _RANK_OPTS
                 + ("top_k",),
    "export-graph": _COMMON + _INPUT_OPTS + ("window", "window_index", "role"),
    "all": _COMMON + _INPUT_OPTS + ("window", "jobs") + _RANK_OPTS
           + _TOPIC_OPTS + ("top_k",),
}

# the semantic options a command records in its manifest: everything it
# accepts except paths and the ignored --jobs, so identical inputs yield
# identical manifests.
_NOT_RECORDED = ("input", "ratings", "lexicon", "stopwords", "out", "jobs")
MANIFEST_KEYS = {
    command: tuple(name for name in options if name not in _NOT_RECORDED)
    for command, options in COMMAND_OPTIONS.items()
}

_SUMMARIES = {
    "synth": "write a seeded synthetic corpus with planted effects",
    "ingest": "validate logs and summarize the corpus and its windows",
    "rank": "write per-window leadership rankings",
    "topics": "extract topic cliques and chain them into streams",
    "analytics": "write gender and role analytics per window",
    "export-graph": "dump network edges and a DOT rendering",
    "all": "run the whole pipeline into one output directory",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadnet",
        description="Multiplex leadership and topic analysis for "
                    "enterprise discussion logs.",
    )
    parser.add_argument("--version", action="version",
                        version=f"leadnet {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, options in COMMAND_OPTIONS.items():
        sub = subparsers.add_parser(command, help=_SUMMARIES[command])
        sub.add_argument("--config",
                         help="JSON file supplying defaults for any option")
        for name in options:
            sub.add_argument(_flag(name), help=SETTINGS[name][2])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_settings(args)
        ctx = RunContext(Path(_require(cfg, "out")))
        try:
            COMMANDS[args.command](cfg, ctx)
            write_manifest(ctx, args.command, cfg)
        except Exception:
            ctx.discard_partial()
            raise
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IngestError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.unfreeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
