"""Self-test of the benchmark's checker: corrupted answers must fail.

Run with ``python3 perfbench/run.py --selftest`` (or
``PYTHONPATH=src:perfbench python3 -m pytest perfbench/selftest_checker.py``).
Correct answers come from the program; each corruption must be
reported as a failed operation by the same checks the workloads use.
"""

from __future__ import annotations

import inputs
from oracle import Oracle, check_first_k, check_matches

TEXTS = [
    "<p>alpha beta</p> motorola foo xpc750 and motorola mpc7400e",
    "<p>nothing here</p>",
    "motorola bar mpc603x then motorola xpc604 motorola mpc740",
    "tail motorola baz xpc7410ev",
    "motorola gone mpc750",
]
POWERPC = next(q for q in inputs.FIGURE8 if q[0] == "powerpc")
EBAY = next(q for q in inputs.FIGURE8 if q[0] == "ebay")
#: The longest ebay match runs 60 characters past the first "auction".
EBAY_TEXTS = [
    "<p>ebay listing: auction closes soon, see the notes below for "
    "every late bidder today</p>",
    "<p>no listing</p>",
]


def answer(limit=None, texts=TEXTS, query=POWERPC):
    from repro.corpus.store import InMemoryCorpus
    from repro.engine.free import FreeEngine
    from repro.index.builder import build_multigram_index

    corpus = InMemoryCorpus.from_texts(texts)
    index = build_multigram_index(corpus, threshold=0.5, max_gram_len=4)
    with FreeEngine(corpus, index) as engine:
        report = engine.search(query[1], limit=limit)
    return [(m.doc_id, m.start, m.end, m.text) for m in report.matches]


def check(matches, limit=None, live=range(len(TEXTS)), texts=TEXTS,
          query=POWERPC):
    orc = Oracle([(i, texts[i]) for i in live])
    return check_matches(query[2], orc.texts,
                         orc.matching_units(query[2]), matches, limit)


def test_correct_answers_pass():
    assert check(answer()) == []
    assert check(answer(limit=3), limit=3) == []
    assert check_first_k(answer(), answer(limit=3), 3) == []


def test_dropped_unit_fails():
    full = answer()
    dropped = [m for m in full if m[0] != 2]
    assert len(dropped) < len(full)
    assert check(dropped)


def test_shifted_span_fails():
    full = answer()
    doc, start, end, _text = full[0]
    shifted = [(doc, start + 1, end + 1, TEXTS[doc][start + 1:end + 1])]
    assert check(shifted + full[1:])
    shorter = [(doc, start, end - 1, TEXTS[doc][start:end - 1])]
    assert check(shorter + full[1:])


def test_span_cut_at_an_earlier_end_fails():
    # A matcher that stopped at the first "auction" instead of running
    # on to the last "bidder" (leftmost-longest) must be caught, however
    # far the longest end lies.
    live = range(len(EBAY_TEXTS))
    full = answer(texts=EBAY_TEXTS, query=EBAY)
    assert check(full, live=live, texts=EBAY_TEXTS, query=EBAY) == []
    doc, start, end, _text = full[0]
    cut = EBAY_TEXTS[doc].index("auction", start) + len("auction")
    assert end - cut > 8
    early = [(doc, start, cut, EBAY_TEXTS[doc][start:cut])]
    assert check(early + full[1:], live=live, texts=EBAY_TEXTS, query=EBAY)


def test_first_k_out_of_order_fails():
    first = answer(limit=4)
    swapped = [first[1], first[0]] + first[2:]
    assert check(swapped, limit=4)
    assert check_first_k(answer(), swapped, 4)
    assert check(first[:3], limit=4)  # one short of min(k, total)


def test_deleted_document_fails():
    # Doc 4 was deleted: the live model holds docs 0-3 only, so an
    # answer that still reports doc 4 is wrong.
    stale = answer()
    assert any(m[0] == 4 for m in stale)
    assert check(stale, live=range(4))


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"checker self-test: {len(tests)} passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
