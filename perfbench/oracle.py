"""The independent answer key: Python ``re`` over the same documents.

A query's answer is a sequence of ``(doc_id, start, end, text)``
matches.  ``check_matches`` accepts it only if

* the set of documents it reports is exactly the set where the ``re``
  form finds a match (all of them for a full search, a prefix in
  document order for a first-k search);
* within a document, each match starts where the ``re`` form's leftmost
  match starts, searching from the end of the previous match, so spans
  increase and never overlap;
* each span's text is the document's slice and ``re.fullmatch``-es it;
* a first-k answer holds exactly ``min(k, total)`` matches, with
  nothing skipped before the cut.

Match *ends* are the program's (POSIX leftmost-longest, where ``re`` is
leftmost-first); the oracle checks them through ``fullmatch``, by
searching on from them, and by making sure no later end in the
document also full-matches (a longer match would have been the POSIX
answer).  The ends tried run from the last one the pattern's maximum
width allows (the document's end for an unbounded pattern) down to
the reported end.
"""

from __future__ import annotations

import bisect
import re
from typing import Dict, List, Optional, Sequence, Tuple

try:
    from re import _parser as sre_parse  # Python >= 3.11
except ImportError:  # pragma: no cover - older Pythons
    import sre_parse

Match = Tuple[int, int, int, str]  # (doc_id, start, end, text)

SEPARATOR = "\x00"  # outside the engine alphabet: no re form matches it


def max_width(std: str) -> int:
    """The most characters a match of ``std`` can span (a huge number
    for an unbounded pattern)."""
    return sre_parse.parse(std).getwidth()[1]


class Oracle:
    """The ``re`` answers over a fixed list of documents."""

    def __init__(self, docs: Sequence[Tuple[int, str]]):
        self.ids = [doc_id for doc_id, _ in docs]
        self.texts: Dict[int, str] = dict(docs)
        self.joined = SEPARATOR.join(text for _, text in docs)
        self.offsets = []
        at = 0
        for _, text in docs:
            self.offsets.append(at)
            at += len(text) + 1
        self._units: Dict[str, List[int]] = {}

    def matching_units(self, std: str) -> List[int]:
        """Sorted ids of the documents where ``std`` finds a match.

        One pass over the joined text: a leftmost-first ``finditer``
        reaches every document that holds a match, because no match
        can cross a separator.
        """
        cached = self._units.get(std)
        if cached is None:
            found = []
            last = -1
            for m in re.finditer(std, self.joined):
                ordinal = bisect.bisect_right(self.offsets, m.start()) - 1
                if ordinal != last:
                    found.append(self.ids[ordinal])
                    last = ordinal
            cached = self._units[std] = found
        return cached


def check_matches(
    std: str,
    texts: Dict[int, str],
    expected_units: Sequence[int],
    matches: Sequence[Match],
    limit: Optional[int] = None,
) -> List[str]:
    """Problems with ``matches`` as the answer to ``std``; [] if none."""
    pattern = re.compile(std)
    widest = max_width(std)
    problems: List[str] = []
    i = 0
    n = len(matches)
    count = 0
    for doc_id in expected_units:
        if limit is not None and count >= limit:
            break
        text = texts[doc_id]
        pos = 0
        while limit is None or count < limit:
            want = pattern.search(text, pos)
            if want is None:
                break
            if i >= n or matches[i][0] != doc_id:
                got = "end of answer" if i >= n else f"doc {matches[i][0]}"
                problems.append(
                    f"missing match in doc {doc_id} at {want.start()} "
                    f"(answer has {got})"
                )
                return problems
            _doc, start, end, span_text = matches[i]
            if start != want.start():
                problems.append(
                    f"doc {doc_id}: match starts at {start}, leftmost "
                    f"match after {pos} starts at {want.start()}"
                )
                return problems
            if not start < end <= len(text):
                problems.append(f"doc {doc_id}: bad span ({start}, {end})")
                return problems
            if span_text != text[start:end]:
                problems.append(f"doc {doc_id}: span text is not the slice")
                return problems
            if pattern.fullmatch(text, start, end) is None:
                problems.append(
                    f"doc {doc_id}: span ({start}, {end}) does not "
                    "fullmatch"
                )
                return problems
            last = min(len(text), start + widest)
            longer = next((e for e in range(last, end, -1)
                           if pattern.fullmatch(text, start, e)), None)
            if longer is not None:
                problems.append(
                    f"doc {doc_id}: span ({start}, {end}) is not the "
                    f"longest match there; ({start}, {longer}) matches"
                )
                return problems
            pos = end
            i += 1
            count += 1
    if i < n:
        problems.append(
            f"unexpected match in doc {matches[i][0]} at {matches[i][1]}"
        )
    return problems


def check_first_k(
    full: Sequence[Match], first: Sequence[Match], k: int
) -> List[str]:
    """first-k must be the first ``min(k, total)`` full-search matches."""
    want = list(full[:k])
    if list(first) != want:
        return [f"first_k({k}) is not the first {len(want)} matches of "
                "the full search"]
    return []


def check_candidates(
    candidates: Sequence[int], expected_units: Sequence[int]
) -> List[str]:
    """Soundness (paper section 4): candidates cover every match."""
    missing = sorted(set(expected_units) - set(candidates))
    if missing:
        return [f"candidates miss matching docs {missing[:5]}"]
    return []
