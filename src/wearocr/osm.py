"""OCR session manager: the server-side timestamp-ordered payload store.

Payloads arrive sparse, irregular, and possibly out of order.  The
store keys them by frame timestamp, partitions text-bearing payloads
into similarity groups (each with a single exemplar, the longest
highest-quality text), and answers point and batch retrievals with
fallback to the latest valid payload before the requested time.

Grouping is a pure function of the stored payload set: it is derived by
replaying payloads in ascending timestamp order, so every ingestion
order yields identical retrieval results.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

from .model import OcrPayload, PayloadKind, QualityFlag, QueryRecord

DEFAULT_TEXT_SIMILARITY_THRESHOLD = 0.8

# Index key of the sets no token prefix covers: the empty set and, at
# theta <= 0 where every pair matches, every set.  Ranks are >= 0.
_ANY_KEY = -1


def token_set(text: str) -> frozenset[str]:
    """The lowercase whitespace-separated tokens of ``text``.

    Near-duplicate tests that compare one text with many keep its token
    set and decide with ``near_duplicate(len(a & b), len(a), len(b), theta)``.
    """
    return frozenset(text.lower().split())


def near_duplicate(common: int, size_a: int, size_b: int, theta: float) -> bool:
    """Whether two token sets sharing ``common`` tokens have Jaccard similarity >= ``theta``.

    The union has ``size_a + size_b - common`` tokens; two empty sets
    have similarity 1.0.  Every near-duplicate decision is made here.
    """
    union = size_a + size_b - common
    return (common / union if union else 1.0) >= theta


# Kept for the benchmark alone: bench/layers.py counts its calls as osm.similarity_evals (ROADMAP item 1).
def payload_similarity(a: OcrPayload, b: OcrPayload) -> float:
    """Jaccard similarity of the payloads' lowercase token sets; 1.0 when both are empty."""
    ta, tb = token_set(a.text()), token_set(b.text())
    union = len(ta | tb)
    return len(ta & tb) / union if union else 1.0


def _exemplar_key(p: OcrPayload) -> tuple[int, float, int]:
    """A group's exemplar is its member with the largest key: the most
    span characters, then the higher mean span confidence, then the
    latest timestamp."""
    chars = sum(len(s.text) for s in p.spans)
    mean_conf = sum(s.conf for s in p.spans) / len(p.spans) if p.spans else 0.0
    return (chars, mean_conf, p.frame_ts_ms)


def _min_overlap(size: int, theta: float) -> int:
    """Fewest tokens a near-duplicate of a set of ``size`` shares with it; ``size + 1`` if none.

    A set sharing ``i`` tokens matches best when it holds just those
    ``i``, with the union ``size``; any larger union lowers the
    similarity.
    """
    return next((i for i in range(size + 1) if near_duplicate(i, size, i, theta)), size + 1)


@dataclass(frozen=True)
class OcrGroup:
    members: tuple[int, ...]
    exemplar_ts: int
    is_selection: bool
    group_latest_ts: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_latest_ts", max(self.members))


@dataclass(frozen=True)
class OcrContextEntry:
    ts_ms: int
    text: str
    quality_flags: frozenset[QualityFlag]
    is_selection: bool


@dataclass(frozen=True)
class _Views:
    """Everything derived from one payload set."""

    valid_ts: list[int]
    groups: list[OcrGroup]
    group_by_ts: dict[int, OcrGroup]
    latest_keys: list[int]  # ascending group_latest_ts
    entries: list[OcrContextEntry]  # one per group, in latest_keys order


class SessionTimeline:
    """Mutable store; all retrieval views are derived from the payload set."""

    def __init__(self, text_similarity_threshold: float = DEFAULT_TEXT_SIMILARITY_THRESHOLD):
        self.theta_text = text_similarity_threshold
        self._payloads: dict[int, OcrPayload] = {}
        self._cache: _Views | None = None

    def ingest(self, payload: OcrPayload) -> "SessionTimeline":
        """Store a payload; a later payload at the same timestamp replaces it."""
        self._payloads[payload.frame_ts_ms] = payload
        self._cache = None
        return self

    def payloads(self) -> list[OcrPayload]:
        """All payloads in ascending timestamp order."""
        return [self._payloads[ts] for ts in sorted(self._payloads)]

    # -- derived structure ------------------------------------------------

    def _derived(self) -> _Views:
        if self._cache is None:
            all_ts = sorted(self._payloads)
            groups = self._build_groups(all_ts)
            selection_ts = [ts for ts in all_ts if self._payloads[ts].selection]
            latest_selection = max(selection_ts) if selection_ts else None
            by_latest = sorted(groups, key=lambda g: g.group_latest_ts)
            entries = []
            for group in by_latest:
                latest = group.group_latest_ts
                exemplar = self._payloads[group.exemplar_ts]
                entries.append(
                    OcrContextEntry(
                        ts_ms=latest,
                        text=exemplar.text(),
                        quality_flags=exemplar.quality_flags,
                        is_selection=group.is_selection and latest == latest_selection,
                    )
                )
            self._cache = _Views(
                valid_ts=[
                    ts for ts in all_ts if self._payloads[ts].is_valid_for_retrieval()
                ],
                groups=groups,
                group_by_ts={ts: g for g in groups for ts in g.members},
                latest_keys=[g.group_latest_ts for g in by_latest],
                entries=entries,
            )
        return self._cache

    def _build_groups(self, all_ts: list[int]) -> list[OcrGroup]:
        # Single-pass greedy grouping in ascending timestamp order: a
        # payload joins the first existing group whose current exemplar
        # it matches at theta_text; selection payloads stay singletons.
        #
        # Rather than test every earlier group, candidates come from a
        # token index filtered as in set-similarity joins (AllPairs,
        # PPJoin).  Tokens are ranked by document frequency, then by
        # string; a set of n tokens matching at theta shares at least
        # _min_overlap(n) of them, so two matching sets share a token
        # within their n - _min_overlap(n) + 1 lowest ranks ("prefix").
        # The index maps each key of a group's current exemplar to the
        # group.  Candidates pass a size filter and the exact test in
        # creation order; the first match wins, as in a full scan.  Both
        # filters are near_duplicate itself at the best case for the
        # sizes, so neither rejects a pair the exact test accepts.
        theta = self.theta_text
        text = [
            self._payloads[ts]
            for ts in all_ts
            if self._payloads[ts].kind is PayloadKind.TEXT_OCR
        ]
        # Token sets of the payloads that can join a group, kept as
        # tuples of shared strings and then of ascending ranks: a few
        # small tuples rather than a set per payload.
        shared: dict[str, str] = {}
        tokens: dict[int, tuple] = {
            p.frame_ts_ms: tuple(shared.setdefault(t, t) for t in token_set(p.text()))
            for p in text
            if not p.selection
        }
        df = Counter(t for toks in tokens.values() for t in toks)
        rank = {t: r for r, t in enumerate(sorted(df, key=lambda t: (df[t], t)))}
        for ts, toks in tokens.items():
            tokens[ts] = tuple(sorted(map(rank.__getitem__, toks)))
        max_size = max(map(len, tokens.values()), default=0)
        need = [_min_overlap(n, theta) for n in range(max_size + 1)]
        # Size filter: fits[a] holds the exemplar sizes b that a set of
        # a tokens can match, at best by sharing min(a, b) of them.
        fits = [
            frozenset(b for b in range(max_size + 1) if near_duplicate(min(a, b), a, b, theta))
            for a in range(max_size + 1)
        ]

        def keys(ts: int) -> tuple[int, ...]:
            toks = tokens[ts]
            return toks[: len(toks) - need[len(toks)] + 1] if theta > 0 and toks else (_ANY_KEY,)

        member_lists: list[list[int]] = []
        exemplars: list[int] = []
        index: dict[int, set[int]] = {}
        for payload in text:
            ts = payload.frame_ts_ms
            match = None
            if not payload.selection:
                toks = tokens[ts]
                mine = set(toks)
                sizes = fits[len(toks)]
                for gi in sorted(set().union(*(index.get(k, ()) for k in keys(ts)))):
                    other = tokens[exemplars[gi]]
                    if len(other) in sizes and near_duplicate(
                        len(mine.intersection(other)), len(toks), len(other), theta
                    ):
                        match = gi
                        break
            if match is None:
                gi = len(member_lists)
                member_lists.append([ts])
                exemplars.append(ts)
                if not payload.selection:
                    for k in keys(ts):
                        index.setdefault(k, set()).add(gi)
                continue
            member_lists[match].append(ts)
            old = exemplars[match]
            if _exemplar_key(payload) > _exemplar_key(self._payloads[old]):
                for k in keys(old):
                    index[k].discard(match)
                for k in keys(ts):
                    index.setdefault(k, set()).add(match)
                exemplars[match] = ts
        return [
            OcrGroup(members=tuple(m), exemplar_ts=e, is_selection=self._payloads[e].selection)
            for m, e in zip(member_lists, exemplars)
        ]

    def groups(self) -> list[OcrGroup]:
        return self._derived().groups

    def group_of(self, ts: int) -> OcrGroup | None:
        return self._derived().group_by_ts.get(ts)

    # -- retrieval --------------------------------------------------------

    def _get_with_source(self, t: int) -> tuple[OcrPayload, int | None]:
        """Retrieval result plus the source timestamp it came from.

        Source is None for synthesized results.
        """
        valid_ts = self._derived().valid_ts
        exact = self._payloads.get(t)
        if exact is not None and exact.is_valid_for_retrieval():
            return exact, t
        idx = bisect.bisect_left(valid_ts, t)
        if idx > 0:
            source = valid_ts[idx - 1]
            return replace(self._payloads[source], frame_ts_ms=t), source
        return (
            OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=t, synthesized=True),
            None,
        )

    def get(self, t: int) -> OcrPayload:
        """Latest valid payload at or before ``t``.

        A payload of a valid kind exactly at ``t`` is returned as-is.
        Otherwise the latest valid payload strictly before ``t`` is
        returned with its timestamp rewritten to ``t``; with nothing
        before either, a synthesized empty payload at ``t``.
        """
        return self._get_with_source(t)[0]

    def get_batch(self, timestamps: Sequence[int]) -> list[OcrPayload]:
        """Point retrieval per timestamp, with group dedup and a nonempty guarantee.

        When several results come from the same similarity group, only
        the one with the largest returned timestamp is kept (carrying
        the group exemplar's text); the other slots degrade to
        synthesized empty payloads so result order still follows the
        request order.  If everything comes back empty while the store
        holds any text payload, the latest text payload at or before the
        largest requested timestamp (or, failing that, the earliest one
        after it) is appended.
        """
        if not timestamps:
            raise ValueError("timestamps must be non-empty")
        raw = [self._get_with_source(t) for t in timestamps]

        by_group: dict[OcrGroup, list[int]] = {}
        for i, (payload, source) in enumerate(raw):
            if source is None or payload.kind is not PayloadKind.TEXT_OCR:
                continue
            group = self.group_of(source)
            if group is not None:
                by_group.setdefault(group, []).append(i)

        results: list[OcrPayload] = [p for p, _ in raw]
        for group, indices in by_group.items():
            keep = max(indices, key=lambda i: (results[i].frame_ts_ms, i))
            exemplar = self._payloads[group.exemplar_ts]
            results[keep] = replace(
                results[keep],
                spans=exemplar.spans,
                quality_flags=exemplar.quality_flags,
            )
            for i in indices:
                if i != keep:
                    results[i] = OcrPayload(
                        kind=PayloadKind.NO_TEXT,
                        frame_ts_ms=results[i].frame_ts_ms,
                        synthesized=True,
                    )

        def is_empty(p: OcrPayload) -> bool:
            return p.synthesized or p.kind is not PayloadKind.TEXT_OCR

        if all(is_empty(p) for p in results):
            text_ts = sorted(
                ts for ts, p in self._payloads.items() if p.kind is PayloadKind.TEXT_OCR
            )
            if text_ts:
                limit = max(timestamps)
                at_or_before = [ts for ts in text_ts if ts <= limit]
                fallback_ts = at_or_before[-1] if at_or_before else text_ts[0]
                results.append(self._payloads[fallback_ts])
        return results

    def build_ocr_context(
        self, query: QueryRecord, window_ms: int
    ) -> list[OcrContextEntry]:
        """Group exemplars whose freshest member falls in the query window.

        One entry per group, stamped at the group's latest timestamp and
        carrying the exemplar's text and quality flags, ascending by
        timestamp.  Only the overall latest selection keeps its
        selection mark; stale selections flow through as ordinary
        entries.
        """
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        lo, hi = query.ts_ms - window_ms, query.ts_ms
        views = self._derived()
        start = bisect.bisect_left(views.latest_keys, lo)
        stop = bisect.bisect_right(views.latest_keys, hi)
        return views.entries[start:stop]
