"""One brute-force oracle per server rule, each in its plainest form.

None calls a program function: from ``wearocr`` this module imports
only classes and spec constants, and it tokenizes, computes Jaccard and
renders prompt lines itself.  ``tests/test_oracles.py`` enforces that,
and cross-checks grouping and the causal context chain against the
benchmark's own independent check, ``bench/checks.py``.
"""

import re

from wearocr.enrich import CONSOLIDATE_GAP_MS
from wearocr.model import OcrPayload, PayloadKind, QueryMode, Resolution
from wearocr.osm import OcrContextEntry, OcrGroup
from wearocr.prompt import READOUT_PREAMBLE, TRANSLATION_PREAMBLE_TEMPLATE


def text_tokens(text):
    """The lowercase whitespace-separated tokens of ``text``."""
    return frozenset(text.lower().split())


def text_similarity(a, b):
    """Jaccard similarity of the token sets of the texts ``a`` and ``b``,
    each joined with spaces; 1.0 when both are empty.  The float form
    of the rule ``near_duplicate`` decides."""
    ta, tb = text_tokens(" ".join(a)), text_tokens(" ".join(b))
    union = len(ta | tb)
    return len(ta & tb) / union if union else 1.0


def span_texts(payload):
    return [s.text for s in payload.spans]


def ocr_line(entry):
    """``[OCR t=<ts>ms flags=<flags>] <text>``: flags lowercase and sorted,
    ``none`` without any, and ``;selected`` after them for a selection."""
    flags = ",".join(sorted(f.value.lower() for f in entry.quality_flags)) or "none"
    selected = ";selected" if entry.is_selection else ""
    return f"[OCR t={entry.ts_ms}ms flags={flags}{selected}] {entry.text}"


def select_exemplar(members):
    """Timestamp of the group member with the longest, highest-quality text.

    Primary key is total character count of the spans; ties go to higher
    mean span confidence, then to the latest timestamp.
    """
    if not members:
        raise ValueError("group must be non-empty")

    def key(p):
        mean_conf = sum(s.conf for s in p.spans) / len(p.spans) if p.spans else 0.0
        return (sum(len(s.text) for s in p.spans), mean_conf, p.frame_ts_ms)

    return max(members, key=key).frame_ts_ms


def oracle_groups(payloads_by_ts, theta):
    """Brute-force greedy grouping: every text payload, in ascending
    timestamp order, is tested against every earlier group's exemplar,
    and the exemplar is re-selected over all members on each join.
    Selections stay singletons."""
    groups = []  # [members, exemplar timestamp, is_selection]
    for ts in sorted(payloads_by_ts):
        payload = payloads_by_ts[ts]
        if payload.kind is not PayloadKind.TEXT_OCR:
            continue
        for group in groups:
            members, exemplar, selection = group
            if payload.selection or selection:
                continue
            if text_similarity(span_texts(payload), span_texts(payloads_by_ts[exemplar])) >= theta:
                members.append(ts)
                group[1] = select_exemplar([payloads_by_ts[m] for m in members])
                break
        else:
            groups.append([[ts], ts, payload.selection])
    return [OcrGroup(members=tuple(m), exemplar_ts=e, is_selection=s) for m, e, s in groups]


def oracle_get(payloads, t):
    """Literal linear-scan implementation of the retrieval rules."""
    valid = {PayloadKind.TEXT_OCR, PayloadKind.NO_TEXT}
    at_t = [p for p in payloads if p.frame_ts_ms == t]
    for p in at_t:
        if p.kind in valid:
            return p
    before = [p for p in payloads if p.frame_ts_ms < t and p.kind in valid]
    if before:
        latest = max(before, key=lambda p: p.frame_ts_ms)
        return OcrPayload(
            kind=latest.kind, frame_ts_ms=t, spans=latest.spans, selection=latest.selection,
            quality_flags=latest.quality_flags, synthesized=latest.synthesized,
        )
    return OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=t, synthesized=True)


def oracle_get_batch(payloads_by_ts, groups, timestamps):
    """``get_batch`` by its documented rules over ``oracle_get``: one text
    result per group, the rest synthesized, and a text payload appended
    when every result is empty.

    ``groups`` is today's rule, the final grouping of all stored
    payloads: one stored after a requested timestamp can still change
    the result, which is the retrieval leak of ROADMAP item 3.
    """
    payloads = list(payloads_by_ts.values())
    results = [oracle_get(payloads, t) for t in timestamps]
    valid = {PayloadKind.TEXT_OCR, PayloadKind.NO_TEXT}
    by_group = {}
    for i, t in enumerate(timestamps):
        sources = [ts for ts, p in payloads_by_ts.items() if ts <= t and p.kind in valid]
        if sources and results[i].kind is PayloadKind.TEXT_OCR:
            group = next(g for g in groups if max(sources) in g.members)
            by_group.setdefault(group, []).append(i)
    for group, indices in by_group.items():
        keep = max(indices, key=lambda i: (timestamps[i], i))
        exemplar = payloads_by_ts[group.exemplar_ts]
        for i in indices:
            if i == keep:
                results[i] = OcrPayload(
                    kind=PayloadKind.TEXT_OCR, frame_ts_ms=timestamps[i], spans=exemplar.spans,
                    selection=results[i].selection, quality_flags=exemplar.quality_flags,
                    synthesized=results[i].synthesized,
                )
            else:
                results[i] = OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=timestamps[i], synthesized=True)
    if all(p.synthesized or p.kind is not PayloadKind.TEXT_OCR for p in results):
        text_ts = sorted(ts for ts, p in payloads_by_ts.items() if p.kind is PayloadKind.TEXT_OCR)
        if text_ts:
            before = [ts for ts in text_ts if ts <= max(timestamps)]
            results.append(payloads_by_ts[before[-1] if before else text_ts[0]])
    return results


def oracle_context(payloads_by_ts, groups, query, window_ms):
    """Linear-scan context: one entry per group whose latest member is in
    the window, with its exemplar's text and flags; only the latest
    selection of ``payloads_by_ts`` keeps its mark.  The context as of
    ``q`` is this call on ``{ts: p for ts <= q}`` and its ``oracle_groups``.
    """
    selections = [ts for ts, p in payloads_by_ts.items() if p.selection]
    latest_selection = max(selections, default=None)
    entries = []
    for group in groups:
        latest = max(group.members)
        if query.ts_ms - window_ms <= latest <= query.ts_ms:
            exemplar = payloads_by_ts[group.exemplar_ts]
            selected = group.is_selection and latest == latest_selection
            entries.append(OcrContextEntry(latest, " ".join(span_texts(exemplar)), exemplar.quality_flags, selected))
    return sorted(entries, key=lambda e: e.ts_ms)


# The regular-expression form ``normalize`` had.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_WS_RE = re.compile(r"\s+")


def oracle_normalize(text):
    return _WS_RE.sub(" ", _CONTROL_RE.sub("", text)).strip()


def oracle_consolidate(entries, threshold=0.8):
    out = []
    for entry in entries:
        if (
            out
            and entry.ts_ms - out[-1].ts_ms <= CONSOLIDATE_GAP_MS
            and text_similarity([out[-1].text], [entry.text]) >= threshold
        ):
            prev = out[-1]
            longer = prev.text if len(prev.text) >= len(entry.text) else entry.text
            out[-1] = OcrContextEntry(
                ts_ms=entry.ts_ms,
                text=longer,
                quality_flags=prev.quality_flags | entry.quality_flags,
                is_selection=prev.is_selection or entry.is_selection,
            )
        else:
            out.append(entry)
    return out


def oracle_dedup(entries, threshold=0.8):
    retained = []
    for entry in entries:
        if entry.is_selection:
            retained.append(entry)
            continue
        if any(text_similarity([entry.text], [kept.text]) >= threshold for kept in retained):
            continue
        retained.append(entry)
    return retained


def oracle_historical(prior_plans, hist_n):
    """The latest ``hist_n`` refs of all earlier plans, re-collected from each."""
    historical = []
    for plan in prior_plans:
        historical.extend(plan.pre_query)
        historical.extend(plan.in_query)
    return tuple(sorted(set(historical))[-hist_n:] if hist_n else [])


def oracle_build_prompt(query, plan, ocr_entries, frame_resolutions=None):
    """The prompt's lines: the mode's preamble, then ``(ts, kind, line)``
    components for the frame refs (kind 0) and OCR lines (kind 1, so
    that OCR follows the frame it describes) in one stable sort on
    (ts, kind), then the question."""
    lines = []
    if query.mode is QueryMode.READOUT:
        lines.append(READOUT_PREAMBLE)
    elif query.mode is QueryMode.TRANSLATION:
        if not query.target_lang:
            raise ValueError("Translation query requires target_lang")
        lines.append(TRANSLATION_PREAMBLE_TEMPLATE.format(language=query.target_lang))
    resolutions = frame_resolutions or {}
    middle = [
        (ts, 0, f"[FRAME t={ts}ms res={resolutions.get(ts, Resolution.MP12).value}]")
        for ts in {*plan.historical, *plan.pre_query, *plan.in_query}
    ]
    middle += [(e.ts_ms, 1, ocr_line(e)) for e in ocr_entries]
    middle.sort(key=lambda c: (c[0], c[1]))
    return lines + [line for _, _, line in middle] + [query.question]


def oracle_bounded_shuffle(items, bound, rng):
    """The shuffle as a stable sort of the whole list by ``i + r * bound``."""
    keyed = [(i + rng.random() * bound, item) for i, item in enumerate(items)]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]
