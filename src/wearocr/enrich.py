"""Server-side text post-processing applied to exemplars before prompt use.

Two steps of the fixed query path: normalization, then temporal
consolidation of near-duplicates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .osm import DEFAULT_TEXT_SIMILARITY_THRESHOLD, OcrContextEntry, near_duplicate

# Deleted by ``normalize``: the C0 controls but tab and newline, and DEL.
_CONTROL = dict.fromkeys([*range(0x09), *range(0x0B, 0x20), 0x7F])

# ``consolidate`` merges near-duplicates at most this far apart.
CONSOLIDATE_GAP_MS = 5000


def normalize(text: str) -> str:
    """Trim, collapse whitespace, strip control characters; idempotent.

    Whitespace is what ``str.split()`` splits on, the same set as the
    regular expression ``\\s``; every character ``_CONTROL`` deletes is
    non-printable, so printable text skips the deletion.  Printable
    ASCII holds no whitespace but the space, so such text with no space
    at either end and no two in a row is already normal: it is returned
    as is.
    """
    if text.isascii() and text.isprintable() and "  " not in text and text.strip(" ") == text:
        return text
    if not text.isprintable():
        text = text.translate(_CONTROL)
    return " ".join(text.split())


def normalize_entries(entries: Sequence[OcrContextEntry]) -> list[OcrContextEntry]:
    """Entries with normalized text; an entry already normal is kept as is."""
    return [e if (text := normalize(e.text)) == e.text else replace(e, text=text) for e in entries]


def consolidate(
    entries: Sequence[OcrContextEntry], threshold: float = DEFAULT_TEXT_SIMILARITY_THRESHOLD
) -> list[OcrContextEntry]:
    """Merge adjacent near-duplicate entries close in time, in one pass.

    Each entry is compared with the last output entry, which may itself
    be a merge: the two merge when their text similarity reaches the
    threshold and their timestamps are at most ``CONSOLIDATE_GAP_MS``
    apart.  The merged entry sits at the later timestamp and keeps the
    longer text (the earlier one on a tie).  Never reorders, never grows
    the list.

    Not idempotent: a merge that lengthens the text can make it match
    the entry before it, which only a second pass would merge.
    """
    out: list[OcrContextEntry] = []
    for entry in entries:
        if out and entry.ts_ms - out[-1].ts_ms <= CONSOLIDATE_GAP_MS:
            prev = out[-1]
            if near_duplicate(
                len(prev.tokens & entry.tokens), len(prev.tokens), len(entry.tokens), threshold
            ):
                out[-1] = OcrContextEntry(
                    ts_ms=entry.ts_ms,
                    text=prev.text if len(prev.text) >= len(entry.text) else entry.text,
                    quality_flags=prev.quality_flags | entry.quality_flags,
                    is_selection=prev.is_selection or entry.is_selection,
                )
                continue
        out.append(entry)
    return out

