"""The four workloads: adhoc, figure8, ingest and serve.

Each runs in a fresh interpreter started by ``run.py`` and returns a
``Result``.  Timed phases call the program only; every answer is kept
and checked against the ``re`` oracle after the phase ends.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
import layers
from inputs import FIGURE8, LEFTMOST_WITNESS, Query
from oracle import Oracle, check_candidates, check_first_k, check_matches

clock = time.perf_counter

#: Per-layer metrics: (name, unit).  Every traced run reports all of
#: them; a layer a workload does not exercise reads 0 there.
PER_LAYER = [
    ("regex.matcher.compile_ms", "ms"),
    ("regex.matcher.confirm_ms", "ms"),
    ("regex.matcher.confirm_chars_per_s", "1/s"),
    ("regex.matcher.units_confirmed", "count"),
    ("regex.matcher.prefilter_reject_ratio", "ratio"),
    ("plan.compile_ms", "ms"),
    ("plan.physical.lookups", "count"),
    ("plan.physical.duplicate_lookups", "count"),
    ("plan.full_scan_queries", "count"),
    ("plan.candidate_precision", "ratio"),
    ("engine.executor.postings_ms", "ms"),
    ("engine.executor.entries_decoded", "count"),
    ("engine.executor.blocks_skipped_ratio", "ratio"),
    ("engine.free.plan_cache_hit_ratio", "ratio"),
    ("engine.free.matcher_cache_hit_ratio", "ratio"),
    ("engine.free.unattributed_ms", "ms"),
    ("index.serialize.ids_cache_hit_ratio", "ratio"),
    ("index.serialize.open_ms", "ms"),
    ("index.serialize.save_ms", "ms"),
    ("index.builder.build_s", "s"),
    ("index.builder.chars_per_s", "1/s"),
    ("index.builder.corpus_scans", "count"),
    ("index.keys", "count"),
    ("index.postings_entries", "count"),
    ("index.ingest.add_ms", "ms"),
    ("index.ingest.seal_ms", "ms"),
    ("index.ingest.merge_ms", "ms"),
    ("index.ingest.seals", "count"),
    ("index.ingest.merges", "count"),
    ("index.ingest.bytes_written_per_doc_byte", "B/B"),
    ("index.ingest.segments_per_query", "count"),
    ("index.ingest.memtable_docs_per_query", "count"),
    ("corpus.store.fetch_ms", "ms"),
    ("serve.service.engine_ms", "ms"),
    ("serve.service.overhead_ms", "ms"),
    ("serve.service.shed", "count"),
    ("serve.service.timeouts", "count"),
    ("client.send_lag_ms", "ms"),
    ("trace.overhead_ms", "ms"),
]

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("mix_pass_ms", "ms"),
    ("first_k_pass_ms", "ms"),
    ("ingest_docs_per_s", "1/s"),
    ("index_bytes_per_corpus_byte", "B/B"),
    ("peak_rss_mb", "MB"),
]

SETUP_REPEATS = 3
FIRST_K = 10
SPEED_SAMPLES = 2   # reference samples on each side of a Speed.op
BUILD_SLICE_DOCS = 24  # documents in the build-rate phase's fixed slice
BUILD_REPEATS = 9      # timed builds of that slice
#: Wrappers each workload's traced run must see fire.
QUERY_LAYERS = ("plan.logical", "plan.physical", "regex.matcher.compile",
                "regex.matcher.prefilter", "regex.matcher.finditer",
                "engine.executor.execute_plan", "corpus.store.get")
SETUP_LAYERS = ("index.builder.build", "index.serialize.save",
                "index.serialize.open")
INGEST_LAYERS = ("index.ingest.add", "index.ingest.seal",
                 "index.ingest.compact", "index.ingest.candidates")


# -- small statistics ------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(values: Sequence[float], window: int = 100) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, taken
    in each window of ``window`` consecutive samples; the median over
    the windows, and its label.  A burst of contention then moves one
    window's tail, not the reported one.  Below forty samples in a
    window there is no tail: the median of all samples is returned."""
    n = len(values)
    windows = n // window
    if windows < 1 or window < 40:
        return median(values), f"p50 of {n}"
    tails = []
    for w in range(windows):
        ordered = sorted(values[w * window:(w + 1) * window])
        tails.append(ordered[window - 11])
    pct = 100.0 * (window - 11) / (window - 1)
    return median(tails), (f"p{pct:.1f} of each {window} consecutive "
                           f"samples, median over {windows} windows")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- machine speed -------------------------------------------------------------

#: Time of ``reference_work`` at the nominal machine speed all timings
#: are scaled to (about its median on the reference 2-core machine).
REF_NOMINAL_S = 0.055


def _reference_text() -> str:
    """About 130 KB of words drawn from a fixed seed: the same text on
    every run and every commit, independent of the program."""
    rng = random.Random("perfbench-reference")
    words = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                     for _ in range(rng.randint(2, 9)))
             for _ in range(3000)]
    return " ".join(rng.choice(words) for _ in range(20000))


_REF_TEXT = _reference_text()


def reference_work() -> int:
    """Fixed pure-Python work shaped like the builder's hot loop: count
    a text's 4-grams in a dictionary.  The dictionary (tens of
    thousands of keys) outgrows the CPU caches as the builder's and the
    query path's structures do, so the loop slows down with a
    neighbour's memory traffic, not only with its CPU use.  A loop over
    a 6 KB text, which fits in cache, did not track the program: ten
    processes' build-to-reference ratios spread 0.17, wider than the raw
    build times (0.13); this loop's spread 0.05."""
    grams: Dict[str, int] = {}
    text = _REF_TEXT
    for i in range(len(text) - 4):
        gram = text[i:i + 4]
        grams[gram] = grams.get(gram, 0) + 1
    return len(grams)


class Speed:
    """The machine's current speed, sampled between timed operations.

    Neighbours on a shared host slow every process down by up to a
    third for minutes at a time, which no statistic inside one run can
    remove.  Each run therefore times ``reference_work`` between the
    operations of its timed phase and scales its timings by
    ``REF_NOMINAL_S / median`` of those samples: a timing reads what it
    would at the nominal speed, and a change to the program moves it as
    much as it moves wall-clock time.

    The loop runs in the program's process, so it must not feel the
    program's state: each sample runs with the garbage collector off
    (the program's heap size and GC settings then cost it nothing).
    A thread the program left running would still take the interpreter
    lock from it and bias the factor; the workloads call the program
    synchronously, and a change that adds a background thread to the
    query or ingest path should be judged on the raw values, which
    every run prints beside the scaled ones.

    The build-rate phase's builds (half a second each) are scaled one
    by one instead (``op``): each by the samples just before and just
    after it, so that a burst of contention in one of them is not
    scaled by the speed of the others.  Its factor also scales the
    set-up (see ``Result.phases``).
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"run": [], "build": []}
        #: per phase timed by ``op``: (seconds, reference) of each op
        self.ops: Dict[str, List[Tuple[float, float]]] = {}

    def sample(self, phase: str = "run") -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = clock()
            reference_work()
            spent = clock() - began
        finally:
            if enabled:
                gc.enable()
        self.samples[phase].append(spent)
        return spent

    def op(self, phase: str, work):
        """Run ``work()`` between SPEED_SAMPLES reference samples on
        each side; returns (its result, its wall seconds)."""
        reference = [self.sample(phase) for _ in range(SPEED_SAMPLES)]
        began = clock()
        value = work()
        spent = clock() - began
        reference += [self.sample(phase) for _ in range(SPEED_SAMPLES)]
        self.ops.setdefault(phase, []).append((spent, median(reference)))
        return value, spent

    def factor(self, phase: str) -> float:
        """1.0 for a phase that took no samples (left unscaled).  For a
        phase timed by ``op`` the factor takes the median raw time to
        the median of the ops' times, each scaled by its own samples."""
        ops = self.ops.get(phase)
        if ops:
            return REF_NOMINAL_S * median([s / r for s, r in ops]) / \
                median([s for s, _r in ops])
        samples = self.samples.get(phase)
        return REF_NOMINAL_S / median(samples) if samples else 1.0

    def scale(self, metrics: Dict[str, float],
              phases: Dict[str, str]) -> None:
        """Scale times down (rates up) to the nominal speed, each metric
        by the factor of its phase (``phases``; "run" if not named)."""
        for name in list(metrics):
            factor = self.factor(phases.get(name, "run"))
            if name.endswith("_per_s"):
                metrics[name] /= factor
            elif name.endswith(("_s", "_ms")):
                metrics[name] *= factor


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- result ------------------------------------------------------------------

class Result:
    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failures: Dict[str, int] = {
            "oracle_mismatch": 0, "exception": 0, "http_429": 0,
            "http_504": 0, "http_5xx": 0, "http_other": 0,
        }
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.correct = True
        self.speed = Speed()
        #: metrics timed outside the timed phase, and the phase whose
        #: speed samples scale them.  setup_s is mostly the builder's
        #: time, and the build-rate phase follows the set-up at once:
        #: over ten seeds its factor gave setup_s spreads of 0.15
        #: (adhoc) and 0.20 (figure8), against 0.16 and 0.32 raw and
        #: 0.20 and 0.38 with the timed phase's factor.
        self.phases: Dict[str, str] = {"setup_s": "build",
                                       "ingest_docs_per_s": "build"}
        #: per-layer metrics, set by a traced run
        self.layers: Optional[Dict[str, float]] = None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, problem: str) -> None:
        self.failures[kind] += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def note(self, text: str) -> None:
        self.notes.append(text)


class Answer:
    """One query's answer, kept for checking after the timed phase."""

    __slots__ = ("query", "limit", "matches", "matching_units", "error",
                 "qid", "docs")

    def __init__(self, query: Query, limit: Optional[int]):
        self.query = query
        self.limit = limit
        self.matches: List[Tuple[int, int, int, str]] = []
        self.matching_units = 0
        self.error: Optional[str] = None
        self.qid: Optional[int] = None
        self.docs: Optional[List[int]] = None


def run_query(engine, query: Query, limit: Optional[int]):
    """Time one query; returns (seconds, report or None, Answer)."""
    answer = Answer(query, limit)
    began = clock()
    try:
        if limit is None:
            report = engine.search(query[1])
        else:
            report = engine.first_k(query[1], limit)
    except Exception as exc:  # counted as a failed operation
        elapsed = clock() - began
        answer.error = f"{type(exc).__name__}: {exc}"
        return elapsed, None, answer
    elapsed = clock() - began
    answer.matches = [(m.doc_id, m.start, m.end, m.text)
                      for m in report.matches]
    answer.matching_units = report.matching_units
    return elapsed, report, answer


class Checker:
    """Checks answers against an oracle; identical answers to the same
    query are checked once."""

    def __init__(self, result: Result):
        self.result = result
        self._verdicts: Dict[tuple, List[str]] = {}

    def check(self, answer: Answer, orc: Oracle,
              key_extra: tuple = ()) -> bool:
        result = self.result
        name, _free, std = answer.query
        if answer.error is not None:
            result.fail("exception", f"{name}: {answer.error}")
            return False
        key = (std, answer.limit, tuple(answer.matches)) + key_extra
        problems = self._verdicts.get(key)
        if problems is None:
            expected = orc.matching_units(std)
            problems = check_matches(std, orc.texts, expected,
                                     answer.matches, answer.limit)
            if not problems and answer.limit is None:
                if answer.matching_units != len(expected):
                    problems = [f"matching_units {answer.matching_units} "
                                f"!= {len(expected)}"]
            self._verdicts[key] = problems
        if problems:
            result.fail("oracle_mismatch",
                        f"{name} {answer.query[1]!r}: {problems[0]}")
            return False
        return True


# -- set-up ------------------------------------------------------------------

def flat_setup(workdir: str, corpus) -> Tuple[object, float, dict]:
    """``free synth`` + ``free build`` + open, as a user runs them.

    The build, image write and open repeat SETUP_REPEATS times; the
    median is setup_s and the last engine is kept.  Returns (engine,
    setup seconds, index facts)."""
    from repro.corpus.store import DiskCorpus
    from repro.engine import factory
    from repro.index import builder, serialize

    corpus_path = os.path.join(workdir, "corpus.img")
    index_path = os.path.join(workdir, "index.img")
    DiskCorpus.save(corpus_path, corpus)
    times: List[float] = []
    engine = None
    store = None
    facts: dict = {}
    for _rep in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
            store.close()
        began = clock()
        with DiskCorpus(corpus_path) as source:
            index = builder.build_multigram_index(
                source, threshold=0.1, max_gram_len=10
            )
        serialize.save_index(index, index_path)
        store = DiskCorpus(corpus_path)
        engine = factory.open_engine(store, index_path)
        times.append(clock() - began)
        facts = {
            "keys": index.stats.n_keys,
            "postings": index.stats.n_postings,
            "corpus_scans": index.stats.corpus_scans,
        }
    facts["index_bytes"] = os.path.getsize(index_path)
    facts["corpus_chars"] = corpus.total_chars
    facts["store"] = store
    facts["corpus_path"] = corpus_path
    facts["index_path"] = index_path
    return engine, median(times), facts


def setup_metrics(result: Result, setup_s: float, facts: dict) -> None:
    result.metrics["setup_s"] = setup_s
    result.metrics["index_bytes_per_corpus_byte"] = (
        facts["index_bytes"] / facts["corpus_chars"]
    )


def build_rate(result: Result, units) -> None:
    """``ingest_docs_per_s`` where no documents stream in (adhoc,
    figure8, serve): the builder's documents per second over a fixed
    slice of the corpus, the median of BUILD_REPEATS builds made
    between the set-up and the timed phase (the heap then holds the
    same objects whatever the seed), each scaled by its own speed
    samples.  The set-up's three 5 s builds are three samples of a
    drifting host speed; the median of many short builds is steadier
    (ten-run sets spread 0.13-0.27 on the set-up rate)."""
    from repro.corpus.store import InMemoryCorpus
    from repro.index import builder

    step = len(units) // BUILD_SLICE_DOCS
    piece = InMemoryCorpus.from_texts(
        [units[i * step].text for i in range(BUILD_SLICE_DOCS)])

    def build():
        builder.build_multigram_index(piece, threshold=0.1,
                                      max_gram_len=10)

    build()  # warm-up, untimed
    times = [result.speed.op("build", build)[1]
             for _ in range(BUILD_REPEATS)]
    result.metrics["ingest_docs_per_s"] = BUILD_SLICE_DOCS / median(times)


def main_corpus():
    corpus = inputs.make_main_corpus()
    inputs.verify_corpus("main", list(corpus))
    return corpus


# -- per-layer summaries -----------------------------------------------------

def zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name, _unit in PER_LAYER}


def query_layers(tracer: layers.Tracer, traced: list,
                 rounds: int) -> Dict[str, float]:
    """Per-layer numbers over traced queries: (qid, seconds, report)."""
    by_query: Dict[int, Dict[str, float]] = {}
    for span in tracer.spans:
        if span.query is None:
            continue
        bucket = by_query.setdefault(span.query, {})
        bucket[span.name] = bucket.get(span.name, 0.0) + span.self_time
    ms = 1000.0

    def per_query(*names: str) -> float:
        return ms * mean([
            sum(by_query.get(qid, {}).get(n, 0.0) for n in names)
            for qid, _s, _r in traced
        ])

    reports = [r for _q, _s, r in traced if r is not None]
    metrics = [r.metrics for r in reports]
    full = [r for r in reports if not r.truncated]
    finditer_s = sum(s.duration for s in tracer.spans
                     if s.name == "regex.matcher.finditer"
                     and s.query is not None)
    rejected = sum(m.prefilter_rejected for m in metrics)
    confirmed = sum(m.units_confirmed for m in metrics)
    skipped = sum(m.postings_blocks_skipped for m in metrics)
    decoded = sum(m.postings_blocks_decoded for m in metrics)

    def flag_ratio(attr: str) -> float:
        flags = [getattr(m, attr) for m in metrics
                 if getattr(m, attr) is not None]
        return ratio(sum(1 for f in flags if f), len(flags))

    unattributed = [
        seconds - sum(by_query.get(qid, {}).values())
        for qid, seconds, _r in traced
    ]
    out = {
        "regex.matcher.compile_ms": per_query("regex.matcher.compile"),
        "regex.matcher.confirm_ms": per_query("regex.matcher.prefilter",
                                              "regex.matcher.finditer"),
        "regex.matcher.confirm_chars_per_s": ratio(
            tracer.counters.get("confirm_chars", 0.0), finditer_s),
        "regex.matcher.units_confirmed": mean(
            [m.units_confirmed for m in metrics]),
        "regex.matcher.prefilter_reject_ratio": ratio(
            rejected, rejected + confirmed),
        "plan.compile_ms": per_query("plan.logical", "plan.physical"),
        "plan.physical.lookups": mean([len(m.lookups) for m in metrics]),
        "plan.physical.duplicate_lookups": mean([
            len(m.lookups) - len({rec.key for rec in m.lookups})
            for m in metrics
        ]),
        "plan.full_scan_queries": ratio(
            sum(1 for r in reports if r.used_full_scan), rounds),
        "plan.candidate_precision": ratio(
            sum(r.matching_units for r in full),
            sum(r.n_candidates for r in full)),
        "engine.executor.postings_ms": per_query(
            "engine.executor.execute_plan", "index.ingest.candidates"),
        "engine.executor.entries_decoded": mean(
            [m.postings_entries_decoded for m in metrics]),
        "engine.executor.blocks_skipped_ratio": ratio(
            skipped, skipped + decoded),
        "engine.free.plan_cache_hit_ratio": flag_ratio("plan_cache_hit"),
        "engine.free.matcher_cache_hit_ratio": flag_ratio(
            "matcher_cache_hit"),
        "engine.free.unattributed_ms": ms * mean(unattributed),
        "index.serialize.ids_cache_hit_ratio": 1.0 - ratio(
            sum(m.postings_entries_decoded for m in metrics),
            sum(rec.n_ids for m in metrics for rec in m.lookups)),
        "corpus.store.fetch_ms": per_query("corpus.store.get"),
    }
    layer_sum = sum(out[k] for k in (
        "regex.matcher.compile_ms", "regex.matcher.confirm_ms",
        "plan.compile_ms", "engine.executor.postings_ms",
        "corpus.store.fetch_ms", "engine.free.unattributed_ms"))
    traced_ms = ms * mean([s for _q, s, _r in traced])
    tracer.add("layer_sum_ms", layer_sum)
    tracer.add("traced_query_ms", traced_ms)
    return out


def setup_layers(tracer: layers.Tracer, facts: dict) -> Dict[str, float]:
    builds = tracer.durations("index.builder.build")
    build_s = median(builds)
    return {
        "index.serialize.open_ms": 1000.0 * median(
            tracer.durations("index.serialize.open")),
        "index.serialize.save_ms": 1000.0 * median(
            tracer.durations("index.serialize.save")),
        "index.builder.build_s": build_s,
        "index.builder.chars_per_s": ratio(facts["corpus_chars"], build_s),
        "index.builder.corpus_scans": float(facts["corpus_scans"]),
        "index.keys": float(facts["keys"]),
        "index.postings_entries": float(facts["postings"]),
    }


def require_fired(result: Result, tracer: layers.Tracer,
                  names: Sequence[str]) -> None:
    missing = [n for n in names if not tracer.fired.get(n)]
    if missing:
        result.correct = False
        result.problems.append(f"wrappers never fired: {missing}")


def layer_accounting(result: Result, tracer: layers.Tracer) -> None:
    result.note(
        "traced query {:.3f} ms = layer self times + unattributed "
        "{:.3f} ms".format(tracer.counters.get("traced_query_ms", 0.0),
                           tracer.counters.get("layer_sum_ms", 0.0)))


def check_soundness(result: Result, tracer: layers.Tracer,
                    answers: List[Answer], orc_for) -> None:
    """Traced run: candidates cover every matching doc (paper s.4)."""
    for answer in answers:
        if answer.qid is None or answer.qid not in tracer.candidates:
            continue  # full scan: every document is a candidate
        orc = orc_for(answer)
        expected = orc.matching_units(answer.query[2])
        problems = check_candidates(tracer.candidates[answer.qid],
                                    expected)
        if problems:
            result.fail("oracle_mismatch",
                        f"{answer.query[0]}: {problems[0]}")


# -- adhoc -------------------------------------------------------------------

def adhoc(workdir: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result("adhoc")
    corpus = main_corpus()
    units = list(corpus)
    orc = Oracle([(u.doc_id, u.text) for u in units])
    stream = inputs.AdhocStream(inputs.Vocabulary(units), seed)
    tracer = layers.Tracer()
    if trace:
        layers.install(tracer)
    engine, setup_s, facts = flat_setup(workdir, corpus)
    tracer.uninstall()
    setup_metrics(result, setup_s, facts)
    if not trace:
        build_rate(result, units)

    # A traced run alternates: two rounds (full, first-k) plain, two
    # traced, so both halves see the same template mix at the same time.
    plain: List[float] = []
    traced: list = []
    passes: Dict[str, List[float]] = {"full": [], "first_k": []}
    answers: List[Answer] = []
    spent = 0.0
    rounds = traced_rounds = 0
    with engine:
        while spent < seconds or rounds % 4:
            limit = None if rounds % 2 == 0 else FIRST_K
            tracing = trace and rounds % 4 >= 2
            if tracing:
                layers.install(tracer)
                traced_rounds += 1
            else:
                result.speed.sample()
            round_s = 0.0
            for query in stream.round():
                qid = len(answers)
                tracer.query = qid
                seconds_q, report, answer = run_query(engine, query, limit)
                tracer.query = None
                answer.qid = qid
                answers.append(answer)
                round_s += seconds_q
                if tracing:
                    traced.append((qid, seconds_q, report))
                else:
                    plain.append(seconds_q)
            tracer.uninstall()
            if not tracing:
                passes["full" if limit is None else "first_k"].append(
                    round_s)
            spent += round_s
            rounds += 1
    facts["store"].close()
    result.metrics["peak_rss_mb"] = peak_rss_mb()

    checker = Checker(result)
    for answer in answers:
        result.attempted += 1
        checker.check(answer, orc)
    if trace:
        check_soundness(result, tracer, answers, lambda _a: orc)
        out = zero_layers()
        out.update(query_layers(tracer, traced, traced_rounds))
        out.update(setup_layers(tracer, facts))
        out["trace.overhead_ms"] = 1000.0 * (
            mean([s for _q, s, _r in traced]) - mean(plain))
        require_fired(result, tracer, QUERY_LAYERS + SETUP_LAYERS)
        layer_accounting(result, tracer)
        result.layers = out
    spent = sum(passes["full"]) + sum(passes["first_k"])
    value, label = tail(plain)
    result.metrics.update({
        "queries_per_s": len(plain) / spent,
        "query_p50_ms": 1000.0 * median(plain),
        "query_tail_ms": 1000.0 * value,
        "mix_pass_ms": 1000.0 * median(passes["full"]),
        "first_k_pass_ms": 1000.0 * median(passes["first_k"]),
    })
    result.note(f"query_tail_ms is {label} queries; {rounds} rounds of "
                f"{len(inputs.ADHOC_SLOTS)} distinct patterns")
    return result


# -- figure8 -----------------------------------------------------------------

def figure8(workdir: str, seed: int, seconds: float, trace: bool) -> Result:
    """``seed`` does not enter: the corpus and the ten queries are
    pinned, so every seed runs the same passes."""
    result = Result("figure8")
    corpus = main_corpus()
    units = list(corpus)
    orc = Oracle([(u.doc_id, u.text) for u in units])
    tracer = layers.Tracer()
    if trace:
        layers.install(tracer)
    engine, setup_s, facts = flat_setup(workdir, corpus)
    tracer.uninstall()
    setup_metrics(result, setup_s, facts)
    if not trace:
        build_rate(result, units)
    checker = Checker(result)
    per_query: Dict[str, List[float]] = {q[0]: [] for q in FIGURE8}
    full_passes: List[float] = []
    fk_passes: List[float] = []
    traced: list = []
    answers: List[Answer] = []

    def one_pass(record: bool, traced_list: Optional[list]):
        full_s = 0.0
        fulls = []
        for query in FIGURE8:
            qid = len(answers)
            tracer.query = qid
            seconds_q, report, answer = run_query(engine, query, None)
            tracer.query = None
            answer.qid = qid
            answers.append(answer)
            fulls.append(answer)
            full_s += seconds_q
            if record:
                per_query[query[0]].append(seconds_q)
            if traced_list is not None:
                traced_list.append((qid, seconds_q, report))
        fk_s = 0.0
        for query, full in zip(FIGURE8, fulls):
            qid = len(answers)
            tracer.query = qid
            seconds_q, report, answer = run_query(engine, query, FIRST_K)
            tracer.query = None
            answer.qid = qid
            answers.append(answer)
            fk_s += seconds_q
            if traced_list is not None:
                traced_list.append((qid, seconds_q, report))
            if full.error is None and answer.error is None:
                problems = check_first_k(full.matches, answer.matches,
                                         FIRST_K)
                if problems and record:
                    result.fail("oracle_mismatch",
                                f"{query[0]}: {problems[0]}")
        return full_s, fk_s

    # A traced run alternates plain and traced passes.
    traced_passes: List[float] = []
    with engine:
        # Warm-up: caches fill, untimed.  A traced run traces it too, so
        # the compile and plan wrappers fire once (passes hit caches).
        if trace:
            layers.install(tracer)
        one_pass(False, None)
        tracer.uninstall()
        del answers[:]
        counted: List[Answer] = []
        spent = 0.0
        n_passes = 0
        while spent < seconds or not full_passes or n_passes % 2:
            tracing = trace and n_passes % 2 == 1
            n_passes += 1
            if tracing:
                layers.install(tracer)
                full_s, fk_s = one_pass(False, traced)
                tracer.uninstall()
                traced_passes.append(full_s + fk_s)
                spent += full_s + fk_s
                continue
            mark = len(answers)
            result.speed.sample()
            full_s, fk_s = one_pass(True, None)
            full_passes.append(full_s)
            fk_passes.append(fk_s)
            spent += full_s + fk_s
            counted.extend(answers[mark:])
        # A known matcher defect, shown once per run, untimed and not
        # counted as an operation (see the README, "Known defect").
        _s, _r, witness = run_query(engine, LEFTMOST_WITNESS, None)
        scan = scan_reference(engine.corpus)
    facts["store"].close()
    if trace:
        # The serve layer's per-layer numbers: free serve over the same
        # image pair.  Its requests are checked but not counted here.
        probe = Result("serve")
        run = serve_phases(
            probe, Server(workdir, facts["corpus_path"], facts["index_path"]),
            inputs.serve_mix(inputs.Vocabulary(units), seed),
            SERVE_PROBE_S, orc)
        result.notes.extend("serve probe: " + n for n in probe.notes)
        if probe.failed:
            result.correct = False
            result.problems.extend(probe.problems)
    result.metrics["peak_rss_mb"] = peak_rss_mb()

    for answer in counted:
        result.attempted += 1
        checker.check(answer, orc)
    std = LEFTMOST_WITNESS[2]
    verdict = [witness.error] if witness.error is not None else \
        check_matches(std, orc.texts, orc.matching_units(std),
                      witness.matches)
    result.note("known defect, leftmost-witness (not counted): "
                + (verdict[0] if verdict else "answered correctly"))
    if trace:
        traced_ids = {qid for qid, _s, _r in traced}
        traced_answers = [a for a in answers if a.qid in traced_ids]
        for answer in traced_answers:
            checker.check(answer, orc)  # checked, not counted
        check_soundness(result, tracer, traced_answers, lambda _a: orc)
        out = zero_layers()
        out.update(query_layers(tracer, traced, len(traced_passes)))
        out.update(setup_layers(tracer, facts))
        plain_passes = [a + b for a, b in zip(full_passes, fk_passes)]
        out["trace.overhead_ms"] = 1000.0 * (
            mean(traced_passes) - mean(plain_passes)) / (2 * len(FIGURE8))
        out.update(run.layers)
        require_fired(result, tracer, QUERY_LAYERS + SETUP_LAYERS)
        layer_accounting(result, tracer)
        result.layers = out

    pooled = [s for values in zip(*per_query.values()) for s in values]
    value, label = tail(pooled, window=20 * len(FIGURE8))
    result.metrics.update({
        "queries_per_s": 2 * len(FIGURE8) / median(
            [a + b for a, b in zip(full_passes, fk_passes)]),
        "query_p50_ms": 1000.0 * median(
            [median(v) for v in per_query.values()]),
        "query_tail_ms": 1000.0 * value,
        "mix_pass_ms": 1000.0 * median(full_passes),
        "first_k_pass_ms": 1000.0 * median(fk_passes),
    })
    result.note(f"{len(full_passes)} timed passes; query_tail_ms is "
                f"{label} full-search queries; query_p50_ms is the "
                "median of the ten per-query medians")
    result.note("FREE/Scan per query (reference, not gated): " + ", ".join(
        f"{name} {ratio(median(per_query[name]), scan[name]):.3f}"
        for name, _f, _s in FIGURE8))
    return result


def scan_reference(corpus) -> Dict[str, float]:
    """The paper's Scan: the same queries with no index attached."""
    from repro.engine.free import FreeEngine

    times: Dict[str, List[float]] = {q[0]: [] for q in FIGURE8}
    with FreeEngine(corpus, None) as scan:
        for rep in range(3):
            for query in FIGURE8:
                seconds_q, _report, _answer = run_query(scan, query, None)
                if rep:
                    times[query[0]].append(seconds_q)
    return {name: median(values) for name, values in times.items()}


# -- ingest ------------------------------------------------------------------

def ingest(workdir: str, seed: int, seconds: float, trace: bool) -> Result:
    """Whole compaction cycles, whatever ``seconds`` says: a cut inside
    a cycle would make the rate depend on where the cut falls."""
    from repro.index.ingest import IngestDirectory
    from repro.index.segmented import SegmentedFreeEngine

    result = Result("ingest")
    corpus = inputs.make_ingest_corpus()
    units = list(corpus)
    inputs.verify_corpus("ingest", units)
    base, stream_ids, victims = inputs.ingest_plan(len(units), seed)
    tracer = layers.Tracer()
    if trace:
        layers.install(tracer)

    times: List[float] = []
    directory = None
    for rep in range(SETUP_REPEATS):
        path = os.path.join(workdir, f"ingest{rep}")
        if directory is not None:
            directory.close()
            shutil.rmtree(directory.path)
        began = clock()
        directory = IngestDirectory(
            path, memtable_docs=inputs.INGEST_BASE_DOCS,
            fanout=inputs.INGEST_FANOUT,
        )
        for uid in base:
            directory.add(units[uid].text, units[uid].url)
        times.append(clock() - began)
    # No speed samples: in three ten-seed sets the scaled set-up spread
    # was wider than the raw one twice (0.35 against 0.19 at worst), so
    # setup_s stays raw wall-clock here.
    result.metrics["setup_s"] = median(times)
    result.phases = {"setup_s": "unscaled"}
    setup_spans = len(tracer.spans)

    texts: Dict[int, str] = {}
    live: List[int] = []
    for doc_id in range(inputs.INGEST_BASE_DOCS):
        texts[doc_id] = directory.corpus.get(doc_id).text
        live.append(doc_id)
    directory.memtable_docs = inputs.INGEST_MEMTABLE_DOCS
    engine = SegmentedFreeEngine(directory.corpus, directory.index)
    answers: List[Answer] = []
    lat: List[float] = []
    full_lat: List[float] = []
    fk_lat: List[float] = []
    segs: List[int] = []
    memtable: List[int] = []
    traced: list = []
    stream_bytes = 0
    victims_left = list(victims)
    checkpoint = 0
    reference_s = 0.0
    began = clock()
    with directory, engine:
        for j, uid in enumerate(stream_ids, start=1):
            unit = units[uid]
            result.attempted += 1
            try:
                doc_id = directory.add(unit.text, unit.url)
            except Exception as exc:
                result.fail("exception", f"add: {exc}")
                continue
            texts[doc_id] = unit.text
            live.append(doc_id)
            stream_bytes += len(unit.text)
            if j % inputs.INGEST_MEMTABLE_DOCS == 0:
                reference_s += result.speed.sample()
            if j % inputs.INGEST_DELETE_EVERY == 0:
                victim = victims_left.pop(0)
                result.attempted += 1
                try:
                    directory.delete(victim)
                except Exception as exc:
                    result.fail("exception", f"delete: {exc}")
                live.remove(victim)
            if j % inputs.INGEST_QUERY_EVERY == 0:
                query = FIGURE8[checkpoint % len(FIGURE8)]
                checkpoint += 1
                segs.append(len(directory.index.segments))
                memtable.append(directory.index.n_memtable)
                snapshot = list(live)
                for limit in (None, FIRST_K):
                    qid = len(answers)
                    tracer.query = qid
                    seconds_q, report, answer = run_query(
                        engine, query, limit)
                    tracer.query = None
                    answer.qid = qid
                    answer.docs = snapshot
                    answers.append(answer)
                    lat.append(seconds_q)
                    (full_lat if limit is None else fk_lat).append(
                        seconds_q)
                    if trace:
                        traced.append((qid, seconds_q, report))
        elapsed = clock() - began - reference_s
        image_bytes = sum(
            os.path.getsize(os.path.join(directory.path, s.file_name))
            for s in directory.index.segments
        )
        live_bytes = sum(len(texts[d]) for d in live)
        n_memtable = directory.index.n_memtable
    tracer.uninstall()
    result.metrics["peak_rss_mb"] = peak_rss_mb()

    oracles: Dict[int, Oracle] = {}

    def orc_for(answer: Answer) -> Oracle:
        key = id(answer.docs)
        if key not in oracles:
            oracles.clear()
            oracles[key] = Oracle([(d, texts[d]) for d in answer.docs])
        return oracles[key]

    checker = Checker(result)
    for i, answer in enumerate(answers):
        result.attempted += 1
        ok = checker.check(answer, orc_for(answer),
                           key_extra=(id(answer.docs),))
        if ok and answer.limit is not None:
            problems = check_first_k(answers[i - 1].matches,
                                     answer.matches, FIRST_K)
            if problems:
                result.fail("oracle_mismatch",
                            f"{answer.query[0]}: {problems[0]}")
    n = len(FIGURE8)
    n_passes = len(full_lat) // n
    full_passes = [sum(full_lat[p * n:(p + 1) * n]) for p in range(n_passes)]
    fk_passes = [sum(fk_lat[p * n:(p + 1) * n]) for p in range(n_passes)]
    value, label = tail(lat, window=128)
    result.metrics.update({
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": 1000.0 * median(lat),
        "query_tail_ms": 1000.0 * value,
        "mix_pass_ms": 1000.0 * median(full_passes),
        "first_k_pass_ms": 1000.0 * median(fk_passes),
        "ingest_docs_per_s": len(stream_ids) / elapsed,
        "index_bytes_per_corpus_byte": image_bytes / live_bytes,
    })
    result.note(f"{len(stream_ids)} adds, {len(victims)} deletes, "
                f"{len(lat)} queries in {elapsed:.2f} s; memtable holds "
                f"{n_memtable} docs at the end; query_tail_ms is {label}")
    if trace:
        check_soundness(result, tracer, answers, orc_for)
        out = zero_layers()
        out.update(query_layers(tracer, traced, n_passes))
        stream_spans = tracer.spans[setup_spans:]
        adds = [s for s in stream_spans
                if s.name == "index.ingest.add" and s.child == 0.0]
        seals = [s for s in stream_spans if s.name == "index.ingest.seal"]
        compacts = [s for s in stream_spans
                    if s.name == "index.ingest.compact"]
        builds = [s for s in stream_spans
                  if s.name == "index.builder.build"]
        merges = tracer.counters.get("merges", 0.0)
        out.update({
            "index.ingest.add_ms": 1000.0 * mean(
                [s.duration for s in adds]),
            "index.ingest.seal_ms": 1000.0 * mean(
                [s.duration for s in seals]),
            "index.ingest.merge_ms": 1000.0 * ratio(
                sum(s.duration for s in compacts), merges),
            "index.ingest.seals": float(len(seals)),
            "index.ingest.merges": merges,
            "index.ingest.bytes_written_per_doc_byte": ratio(
                tracer.counters.get("image_bytes", 0.0), stream_bytes),
            "index.ingest.segments_per_query": mean(segs),
            "index.ingest.memtable_docs_per_query": mean(memtable),
            "index.builder.build_s": median(
                [s.duration for s in builds]),
            "index.builder.chars_per_s": ratio(
                tracer.counters.get("build_chars", 0.0),
                sum(s.duration for s in builds)),
            "index.serialize.open_ms": 1000.0 * median(
                [s.duration for s in stream_spans
                 if s.name == "index.serialize.open"]),
            "index.serialize.save_ms": 1000.0 * median(
                [s.duration for s in stream_spans
                 if s.name == "index.serialize.save"]),
        })
        require_fired(result, tracer, QUERY_LAYERS + INGEST_LAYERS
                      + SETUP_LAYERS)
        result.layers = out
    return result


# -- serve -------------------------------------------------------------------

SERVE_CONNECTIONS = 2          # = nproc of the reference machine
SERVE_OPEN_RATE = 100.0        # requests/s offered in the open loop
SERVE_PROBE_S = 4.0            # figure8's traced run: serve layer probe
SERVE_ARGS = ["--workers", "2", "--queue-depth", "16", "--timeout", "5"]


class Server:
    """``free serve`` as its own process."""

    def __init__(self, workdir: str, corpus_path: str, index_path: str):
        env = dict(os.environ)
        self.log = open(os.path.join(workdir, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", corpus_path,
             index_path, "--port", "0"] + SERVE_ARGS,
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        line = self.proc.stdout.readline().decode()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"free serve did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1].rstrip("/"))
        deadline = clock() + 60
        while True:
            conn = self.connect()
            try:
                status, _body = request(conn, "GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                if clock() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("free serve never answered /healthz")
                time.sleep(0.01)
            finally:
                conn.close()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self.log.close()


def request(conn, method: str, path: str, payload: Optional[dict] = None):
    body = None if payload is None else json.dumps(payload)
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


class Sample:
    __slots__ = ("query", "limit", "due", "sent", "done", "status", "body",
                 "error")

    def __init__(self, query: Query, limit: Optional[int]):
        self.query = query
        self.limit = limit
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None


def send(conn, sample: Sample) -> None:
    if sample.limit is None:
        path, payload = "/search", {"pattern": sample.query[1]}
    else:
        path, payload = "/first_k", {"pattern": sample.query[1],
                                     "k": sample.limit}
    sample.sent = clock()
    try:
        sample.status, sample.body = request(conn, "POST", path, payload)
    except (OSError, http.client.HTTPException) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.done = clock()


def closed_loop(server: Server, mix: List[Query], seconds: float):
    """Each connection runs whole passes over the mix, alternating
    /search and /first_k passes, until ``seconds`` have passed."""
    samples: List[List[Sample]] = [[] for _ in range(SERVE_CONNECTIONS)]
    passes: Dict[str, List[float]] = {"full": [], "first_k": []}
    lock = threading.Lock()
    deadline = clock() + seconds

    def client(slot: int) -> None:
        conn = server.connect()
        n = 0
        try:
            while clock() < deadline or n % 2:
                limit = None if n % 2 == 0 else FIRST_K
                began = clock()
                for query in mix[slot:] + mix[:slot]:
                    sample = Sample(query, limit)
                    send(conn, sample)
                    samples[slot].append(sample)
                with lock:
                    passes["full" if limit is None else "first_k"].append(
                        clock() - began)
                n += 1
        finally:
            conn.close()

    began = clock()
    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(SERVE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = clock() - began
    return [s for per in samples for s in per], passes, elapsed


def open_loop(server: Server, mix: List[Query], seconds: float):
    """Requests due at a fixed rate, each timed from its due time."""
    total = int(SERVE_OPEN_RATE * seconds)
    samples = [Sample(mix[i % len(mix)], None) for i in range(total)]
    start = clock() + 0.05
    for i, sample in enumerate(samples):
        sample.due = start + i / SERVE_OPEN_RATE

    def client(slot: int) -> None:
        conn = server.connect()
        try:
            for sample in samples[slot::SERVE_CONNECTIONS]:
                wait = sample.due - clock()
                if wait > 0:
                    time.sleep(wait)
                send(conn, sample)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(SERVE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


class ServeRun:
    """What one closed-loop + open-loop session against a server saw."""

    def __init__(self) -> None:
        self.passes: Dict[str, List[float]] = {}
        self.closed_s = 0.0
        self.closed_ok = 0
        self.latencies: List[float] = []
        self.tail = 0.0
        self.reports: List[dict] = []
        self.peak_rss_mb = 0.0
        self.layers: Dict[str, float] = {}


def serve_phases(result: Result, server: Server, mix: List[Query],
                 seconds: float, orc: Oracle) -> ServeRun:
    """Closed loop then open loop for ``seconds`` in all; stops the
    server; checks every response body; counts every request in
    ``result``."""
    run = ServeRun()
    try:
        half = seconds / 2
        closed, run.passes, run.closed_s = closed_loop(server, mix, half)
        opened = open_loop(server, mix, half)
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    verdicts: Dict[tuple, bool] = {}
    checker = Checker(result)
    engine_ms: List[float] = []
    for sample in closed + opened:
        result.attempted += 1
        if sample.error is not None:
            result.fail("exception", f"{sample.query[0]}: {sample.error}")
            continue
        if sample.status != 200:
            kind = {429: "http_429", 504: "http_504"}.get(
                sample.status,
                "http_5xx" if sample.status >= 500 else "http_other")
            result.fail(kind, f"{sample.query[0]}: HTTP {sample.status}")
            continue
        payload = json.loads(sample.body)
        engine_ms.append(1000.0 * payload["timings"]["total_seconds"])
        run.reports.append(payload)
        answer = Answer(sample.query, sample.limit)
        answer.matches = [(m["doc_id"], m["start"], m["end"], m["text"])
                          for m in payload["matches"]]
        answer.matching_units = payload["matching_units"]
        key = (sample.query[1], sample.limit, tuple(answer.matches))
        if key not in verdicts:
            verdicts[key] = checker.check(answer, orc)
        elif not verdicts[key]:
            result.fail("oracle_mismatch", f"{sample.query[0]}: repeat")
    run.closed_ok = sum(1 for s in closed if s.status == 200)
    run.latencies = [s.done - s.due for s in opened if s.status == 200]
    lags = [s.sent - s.due for s in opened]
    run.tail, label = tail(run.latencies)
    lag_value, lag_label = tail(lags)
    result.note(f"closed loop: {len(closed)} requests on "
                f"{SERVE_CONNECTIONS} connections in {run.closed_s:.2f} s; "
                f"open loop: {len(opened)} requests at "
                f"{SERVE_OPEN_RATE:g}/s; query_tail_ms is {label}")
    result.note(f"client.send_lag_ms: median {1000 * median(lags):.3f}, "
                f"{lag_label} {1000 * lag_value:.3f}")
    client_ms = [1000.0 * (s.done - s.sent)
                 for s in closed + opened if s.status == 200]
    run.layers = {
        "serve.service.engine_ms": median(engine_ms),
        "serve.service.overhead_ms": median(client_ms) - median(engine_ms),
        "serve.service.shed": float(result.failures["http_429"]),
        "serve.service.timeouts": float(result.failures["http_504"]),
        "client.send_lag_ms": 1000.0 * lag_value,
    }
    return run


def serve(workdir: str, seed: int, seconds: float, trace: bool) -> Result:
    from repro.corpus.store import DiskCorpus
    from repro.engine import factory
    from repro.index import builder, serialize

    result = Result("serve")
    corpus = main_corpus()
    units = list(corpus)
    orc = Oracle([(u.doc_id, u.text) for u in units])
    mix = inputs.serve_mix(inputs.Vocabulary(units), seed)
    corpus_path = os.path.join(workdir, "corpus.img")
    index_path = os.path.join(workdir, "index.img")
    DiskCorpus.save(corpus_path, corpus)
    tracer = layers.Tracer()
    if trace:
        layers.install(tracer)
    times: List[float] = []
    server = None
    for _rep in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        began = clock()
        with DiskCorpus(corpus_path) as source:
            index = builder.build_multigram_index(
                source, threshold=0.1, max_gram_len=10
            )
        serialize.save_index(index, index_path)
        server = Server(workdir, corpus_path, index_path)
        times.append(clock() - began)
    if trace:
        factory.load_any_index(index_path)  # the open the server makes
    tracer.uninstall()
    facts = {
        "keys": index.stats.n_keys, "postings": index.stats.n_postings,
        "corpus_scans": index.stats.corpus_scans,
        "index_bytes": os.path.getsize(index_path),
        "corpus_chars": corpus.total_chars,
    }
    setup_metrics(result, median(times), facts)
    if not trace:
        build_rate(result, units)
    # No speed samples here: the timed work runs in the server process,
    # which the reference loop in this one does not track (scaling
    # widened serve's run-to-run spread), so serve's query metrics stay
    # raw wall-clock.
    run = serve_phases(result, server, mix, seconds, orc)
    result.metrics.update({
        "queries_per_s": run.closed_ok / run.closed_s,
        "query_p50_ms": 1000.0 * median(run.latencies),
        "query_tail_ms": 1000.0 * run.tail,
        "mix_pass_ms": 1000.0 * median(run.passes["full"]),
        "first_k_pass_ms": 1000.0 * median(run.passes["first_k"]),
        "peak_rss_mb": run.peak_rss_mb,
    })
    if trace:
        out = zero_layers()
        out.update(setup_layers(tracer, facts))
        out.update(run.layers)
        metrics = [r["metrics"] for r in run.reports]
        rejected = sum(m["prefilter_rejected"] for m in metrics)
        confirmed = sum(m["units_confirmed"] for m in metrics)
        full = [r for r in run.reports if not r["truncated"]]

        def flag_ratio(name: str) -> float:
            flags = [m[name] for m in metrics if m[name] is not None]
            return ratio(sum(1 for f in flags if f), len(flags))

        out.update({
            "regex.matcher.units_confirmed": mean(
                [m["units_confirmed"] for m in metrics]),
            "regex.matcher.prefilter_reject_ratio": ratio(
                rejected, rejected + confirmed),
            "plan.physical.lookups": mean(
                [m["n_lookups"] for m in metrics]),
            "plan.candidate_precision": ratio(
                sum(r["matching_units"] for r in full),
                sum(r["n_candidates"] for r in full)),
            "engine.executor.entries_decoded": mean(
                [m["postings_entries_decoded"] for m in metrics]),
            "engine.free.plan_cache_hit_ratio": flag_ratio(
                "plan_cache_hit"),
            "engine.free.matcher_cache_hit_ratio": flag_ratio(
                "matcher_cache_hit"),
        })
        require_fired(result, tracer, SETUP_LAYERS)
        result.layers = out
    return result


WORKLOADS = {
    "adhoc": adhoc,
    "figure8": figure8,
    "ingest": ingest,
    "serve": serve,
}
