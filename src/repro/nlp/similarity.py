"""Text-reuse similarity analysis (Section 4.2).

The paper "carried out a case-insensitive similarity analysis after
removing numbers and punctuation" over underground listings and found
88–100 % word similarity across reused posts.  We implement the same
normalization and measure similarity as the SequenceMatcher ratio over
word sequences, plus helpers to group a corpus into reuse groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Dict, List, Sequence, Tuple

from repro.util.textutil import strip_numbers, words


def normalize_for_similarity(text: str) -> List[str]:
    """Case-folded word sequence with numbers and punctuation removed."""
    return words(strip_numbers(text))


def normalized_word_similarity(a: str, b: str) -> float:
    """Similarity in [0, 1] between two texts after normalization.

    >>> normalized_word_similarity("Selling 5 aged accounts!", "selling 99 aged accounts")
    1.0
    """
    return _ratio(
        SequenceMatcher(b=normalize_for_similarity(b), autojunk=False),
        normalize_for_similarity(a),
    )


def _ratio(matcher: SequenceMatcher, wa: List[str]) -> float:
    """Similarity of the normalized words ``wa`` to the matcher's second
    sequence; two empty sequences count as identical."""
    if not wa and not matcher.b:
        return 1.0
    matcher.set_seq1(wa)
    return matcher.ratio()


@dataclass
class ReuseGroup:
    """A group of near-duplicate documents."""

    indices: List[int]
    min_similarity: float
    max_similarity: float

    @property
    def size(self) -> int:
        return len(self.indices)


def reuse_groups(texts: Sequence[str], threshold: float = 0.88) -> List[ReuseGroup]:
    """Group documents whose pairwise similarity reaches ``threshold``.

    Single-link (union-find) over all pairs — the underground corpus is
    tiny (65 postings), so the O(n²) pass is the honest implementation.
    """
    n = len(texts)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    normalized = [normalize_for_similarity(text) for text in texts]
    similarities: Dict[Tuple[int, int], float] = {}
    for j in range(n):
        # One matcher per second sequence: indexing b is the costly half
        # of SequenceMatcher's set-up, and set_seq1 keeps that index.
        matcher = SequenceMatcher(b=normalized[j], autojunk=False)
        for i in range(j):
            sim = _ratio(matcher, normalized[i])
            if sim >= threshold:
                similarities[(i, j)] = sim
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    members: Dict[int, List[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    groups: List[ReuseGroup] = []
    for group_indices in members.values():
        if len(group_indices) < 2:
            continue
        sims = [
            similarities.get((a, b)) or similarities.get((b, a))
            for ai, a in enumerate(group_indices)
            for b in group_indices[ai + 1 :]
        ]
        sims = [s for s in sims if s is not None]
        if not sims:
            # Linked only transitively: recompute the direct bounds.
            sims = [
                _ratio(SequenceMatcher(b=normalized[b], autojunk=False),
                       normalized[a])
                for ai, a in enumerate(group_indices)
                for b in group_indices[ai + 1 :]
            ]
        groups.append(
            ReuseGroup(
                indices=sorted(group_indices),
                min_similarity=min(sims),
                max_similarity=max(sims),
            )
        )
    groups.sort(key=lambda g: (-g.size, g.indices[0]))
    return groups


__all__ = ["ReuseGroup", "normalize_for_similarity", "normalized_word_similarity", "reuse_groups"]
