"""Inputs owned by the benchmark: pinned corpora, patterns, streams.

Every pattern exists in two forms written here by hand: the FREE
dialect the program is asked, and a Python ``re`` form the oracle
(``oracle.py``) answers with.  Shorthand classes are spelled out in
the ``re`` forms so the stdlib's Unicode classes cannot creep in, and
FREE's ``.`` (any alphabet character, newline included) and negated
classes (complemented within printable ASCII plus tab, newline and
carriage return) are spelled as explicit ASCII classes.

The corpora are synthesized by the program's own generator at pinned
seeds and sizes and verified against the digests recorded in
README.md; ``--seed`` only drives the workload streams drawn from them.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Dict, List, Sequence, Tuple

# -- re spellings of FREE's classes ---------------------------------------

ANY = r"[\t\n\r -~]"          # FREE "."
ALPHA = r"[A-Za-z]"           # FREE "\a"
DIGIT = r"[0-9]"              # FREE "\d"
SPACE = r"[ \t\n\r]"          # FREE "\s"
NOT_GT = r"[\t\n\r -=?-~]"    # FREE "[^>]"
NOT_LT = r"[\t\n\r -;=-~]"    # FREE "[^<]"

Query = Tuple[str, str, str]  # (name, FREE form, re form)

#: The ten queries of the paper's Figure 8, as the program's dialect
#: spells them, each with its independently written ``re`` form.  The
#: ``stanford`` re form uses the identity X+(Y+\.)* == X+ (X contains Y
#: and ".") to drop the nested quantifier that makes backtracking slow.
FIGURE8: List[Query] = [
    ("mp3", r'<a href=("|\')?[^>]*\.mp3("|\')?>',
     r'<a href=(?:"|\')?' + NOT_GT + r'*\.mp3(?:"|\')?>'),
    ("ebay", r"ebay.*(auction|bidder)",
     r"ebay" + ANY + r"*(?:auction|bidder)"),
    ("zip", r"\a+,\s[a-z][a-z]\s\d\d\d\d\d",
     ALPHA + r"+," + SPACE + r"[a-z][a-z]" + SPACE + DIGIT + r"{5}"),
    ("html", r"<[^>]*<", r"<" + NOT_GT + r"*<"),
    ("clinton", r"william\s+[a-z]+\s+clinton",
     r"william" + SPACE + r"+[a-z]+" + SPACE + r"+clinton"),
    ("powerpc", r"motorola.*(xpc|mpc)[0-9]+[0-9a-z]*",
     r"motorola" + ANY + r"*(?:xpc|mpc)[0-9]+[0-9a-z]*"),
    ("script", r"<script>.*</script>", r"<script>" + ANY + r"*</script>"),
    ("phone", r"(\(\d\d\d\) |\d\d\d-)\d\d\d-\d\d\d\d",
     r"(?:\(" + DIGIT + r"{3}\) |" + DIGIT + r"{3}-)" + DIGIT + r"{3}-"
     + DIGIT + r"{4}"),
    ("sigmod",
     r'<a\s+href\s*=\s*("|\')?[^>]*(\.ps|\.pdf)("|\')?>.{0,200}sigmod',
     r"<a" + SPACE + r"+href" + SPACE + r"*=" + SPACE + r'*(?:"|\')?'
     + NOT_GT + r'*(?:\.ps|\.pdf)(?:"|\')?>' + ANY + r"{0,200}sigmod"),
    ("stanford", r"(\a|\d|-|_|\.)+((\a|\d)+\.)*stanford\.edu",
     r"[A-Za-z0-9_.\-]+stanford\.edu"),
]

#: Figure 8 queries whose plans use the index (the serve mix).
SELECTIVE_FIGURE8 = ("mp3", "ebay", "clinton", "powerpc", "sigmod",
                     "stanford")

#: A fixed query the program answers wrongly on the pinned corpus: the
#: matcher reports the alternative that *ends* first ("jefferson")
#: instead of the leftmost match ("william jefferson clinton").
#: ``figure8`` runs it once per run, untimed, and prints its verdict
#: as a note; it is not one of the counted operations.
LEFTMOST_WITNESS: Query = (
    "leftmost-witness",
    r"william\s+[a-z]+\s+clinton|jefferson",
    r"william" + SPACE + r"+[a-z]+" + SPACE + r"+clinton|jefferson",
)

# -- pinned corpora -------------------------------------------------------

#: Corpus of the adhoc, figure8 and serve workloads.
MAIN_CORPUS = {"n_pages": 300, "seed": 7}
#: Second corpus streamed by the ingest workload: short log-like pages.
INGEST_CORPUS = {"n_pages": 600, "seed": 8, "mean_paragraphs": 2,
                 "words_per_paragraph": 20}

#: sha256 of each pinned corpus (see ``corpus_digest``); regenerate with
#: ``python3 perfbench/run.py --print-digests``.
DIGESTS = {
    "main": "26e92d9e31a9a01d180698014d299349198634b275c86a5329a5edb26551d8a0",
    "ingest": "d5fc801d8bf7cf2bd3f6673e32663ecfce59cc862dd9c29ffa42cadb898cbbe2",
}


def make_main_corpus():
    from repro.corpus.synthesis import build_corpus

    return build_corpus(**MAIN_CORPUS)


def make_ingest_corpus():
    from repro.corpus.synthesis import CorpusConfig, SyntheticWeb

    return SyntheticWeb(CorpusConfig(**INGEST_CORPUS)).corpus()


def corpus_digest(units) -> str:
    digest = hashlib.sha256()
    for unit in units:
        digest.update(f"{unit.doc_id}\x00{unit.url}\x00".encode())
        digest.update(unit.text.encode())
        digest.update(b"\x01")
    return digest.hexdigest()


def verify_corpus(name: str, units) -> None:
    """Raise if the synthesized corpus is not the pinned one."""
    got = corpus_digest(units)
    if got != DIGESTS[name]:
        raise SystemExit(
            f"perfbench: {name} corpus digest {got} does not match the "
            f"pinned {DIGESTS[name]}; the corpus generator changed, so "
            "results would not compare across commits"
        )


# -- words of a corpus ----------------------------------------------------

_PARAGRAPH = re.compile(r"<p>([a-z ]+)</p>")


class Vocabulary:
    """Document frequencies and adjacent pairs of a corpus's plain
    paragraph words (the Zipf background text)."""

    def __init__(self, units: Sequence):
        self.n_docs = len(units)
        df: Dict[str, int] = {}
        pairs: List[Tuple[str, str]] = []
        same_page: List[Tuple[str, str]] = []
        self.link_targets = sorted({
            int(m) for unit in units
            for m in re.findall(r'/page(\d+)\.html">', unit.text)
        })
        page_words: List[List[str]] = []
        for unit in units:
            words: List[str] = []
            for body in _PARAGRAPH.findall(unit.text):
                tokens = body.split()
                words.extend(tokens)
                pairs.extend(zip(tokens, tokens[1:]))
            page_words.append(words)
            for word in set(words):
                df[word] = df.get(word, 0) + 1
        self.rare = sorted(
            w for w, n in df.items() if n <= 3 and len(w) >= 5
        )
        rare = set(self.rare)
        self.common = sorted(w for w, n in df.items()
                             if n >= 0.3 * self.n_docs)
        common = set(self.common)
        self.rare_pairs = sorted({p for p in pairs if p[0] in rare})
        self.common_pairs = sorted({
            p for p in pairs if p[0] in common and p[1] in common
        })
        for words in page_words:
            rares = [w for w in words if w in rare]
            for a, b in zip(rares, rares[1:]):
                if a != b:
                    same_page.append((a, b))
        self.rare_same_page = sorted(set(same_page))


def _apart(a: str, b: str) -> bool:
    return a not in b and b not in a


# -- adhoc templates ------------------------------------------------------

#: Slots of one adhoc round: six selective (rare words), two broad
#: (common words, most pages are candidates) and two class-only
#: (no gram at all, the plan collapses to a full scan).
ADHOC_SLOTS = ("rare", "rare_next", "rare_or", "rare_to_para_end",
               "rare_gap", "link", "common_pair", "para_start",
               "zip_like", "word_digits")


class AdhocStream:
    """Seeded stream of distinct adhoc patterns, one round at a time."""

    def __init__(self, vocab: Vocabulary, seed: int):
        self.vocab = vocab
        self.rng = random.Random(f"adhoc:{seed}")
        self.seen: set = set()

    def _draw(self, slot: str) -> Query:
        rng, v = self.rng, self.vocab
        if slot == "rare":
            w = rng.choice(v.rare)
            return slot, w, w
        if slot == "rare_next":
            a, b = rng.choice(v.rare_pairs)
            return slot, rf"{a}\s+{b}", a + SPACE + "+" + b
        if slot == "rare_or":
            # The two words never contain one another; see README
            # ("leftmost-witness") for the defect this keeps apart.
            while True:
                a, b = rng.sample(v.rare, 2)
                if _apart(a, b):
                    return slot, f"({a}|{b})", f"(?:{a}|{b})"
        if slot == "rare_to_para_end":
            w = rng.choice(v.rare)
            return slot, f"{w}[^<]*</p>", w + NOT_LT + "*</p>"
        if slot == "rare_gap":
            a, b = rng.choice(v.rare_same_page)
            return slot, f"{a}.*{b}", a + ANY + "*" + b
        if slot == "link":
            page = rng.choice(v.link_targets)
            return (slot, rf'page{page}\.html">\a+',
                    rf'page{page}\.html">' + ALPHA + "+")
        if slot == "common_pair":
            a, b = rng.choice(v.common_pairs)
            return slot, rf"{a}\s+{b}", a + SPACE + "+" + b
        if slot == "para_start":
            a, b = rng.choice(v.common), rng.choice(v.common)
            return (slot, rf"<p>{a}\s+\a+\s+{b}",
                    f"<p>{a}" + SPACE + "+" + ALPHA + "+" + SPACE + "+" + b)
        if slot == "zip_like":
            lo = rng.randint(1, 6)
            hi = rng.randint(lo, lo + 12)
            k = rng.randint(1, 5)
            return (slot, rf"\a{{{lo},{hi}}},\s[a-z][a-z]\s\d{{{k}}}",
                    ALPHA + f"{{{lo},{hi}}}," + SPACE + "[a-z]{2}"
                    + SPACE + DIGIT + f"{{{k}}}")
        if slot == "word_digits":
            lo = rng.randint(1, 4)
            hi = rng.randint(lo, lo + 9)
            dlo = rng.randint(1, 2)
            dhi = rng.randint(dlo, dlo + 2)
            return (slot, rf"[a-z]{{{lo},{hi}}}\d{{{dlo},{dhi}}}",
                    f"[a-z]{{{lo},{hi}}}" + DIGIT + f"{{{dlo},{dhi}}}")
        raise ValueError(slot)

    def round(self) -> List[Query]:
        out = []
        for slot in ADHOC_SLOTS:
            for _attempt in range(1000):
                query = self._draw(slot)
                if query[1] not in self.seen:
                    break
            else:
                raise SystemExit(f"perfbench: adhoc slot {slot} exhausted")
            self.seen.add(query[1])
            out.append(query)
        return out


def serve_mix(vocab: Vocabulary, seed: int) -> List[Query]:
    """Twenty selective queries: the six selective Figure 8 queries
    plus fourteen seeded rare-word patterns."""
    figure8 = {name: (name, free, std) for name, free, std in FIGURE8}
    mix = [figure8[name] for name in SELECTIVE_FIGURE8]
    stream = AdhocStream(vocab, seed)
    while len(mix) < 20:
        for query in stream.round()[:2]:  # "rare", "rare_next"
            if len(mix) < 20:
                mix.append(query)
    return mix


# -- ingest stream --------------------------------------------------------

#: Ingest shape: the base documents are bulk-loaded and sealed as one
#: segment; the stream then runs whole compaction cycles.
INGEST_BASE_DOCS = 150
INGEST_MEMTABLE_DOCS = 8
INGEST_FANOUT = 4
INGEST_CYCLE_ADDS = INGEST_MEMTABLE_DOCS * INGEST_FANOUT * INGEST_FANOUT
INGEST_DELETE_EVERY = 16   # one delete per this many adds
INGEST_QUERY_EVERY = 2     # one Figure 8 query per this many adds
INGEST_CYCLES = 3


def ingest_plan(n_units: int, seed: int):
    """(base ids, stream ids, delete victims) for one run.

    Deletes only hit base documents, the oldest data: a delete inside a
    fresh 8-document segment would move it down a compaction tier and
    change the merge schedule from seed to seed.
    """
    rng = random.Random(f"ingest:{seed}")
    order = list(range(n_units))
    rng.shuffle(order)
    n_stream = INGEST_CYCLE_ADDS * INGEST_CYCLES
    base = order[:INGEST_BASE_DOCS]
    stream = order[INGEST_BASE_DOCS:INGEST_BASE_DOCS + n_stream]
    n_deletes = n_stream // INGEST_DELETE_EVERY
    victims = rng.sample(range(INGEST_BASE_DOCS), n_deletes)
    return base, stream, victims
