"""Table-anchored relative power model.

Two deliberately separate baselines, loaded from a versioned anchor
file: streaming configurations relative to 12MP/30fps capture, and
on-device capture+OCR configurations relative to 12fps with no OCR.
The two "1.0x" rows are not commensurable, so a session report shows
them side by side and never fuses them into a single number.

Within an anchored device row group, power is piecewise-linear in word
count across the {0, 30, 100} anchors and clamps above 100 words.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .model import Resolution, piecewise_linear

_ANCHOR_RESOURCE = "power_anchors.json"


class OcrMode(str, Enum):
    NO_OCR = "NoOcr"
    OCR_ALL_FRAMES = "OcrAllFrames"
    OCR_SAMPLED_2FPS = "OcrSampled2fps"
    SFS_12MP_INPUT = "Sfs12MpInput"
    SFS_3MP_INPUT = "Sfs3MpInput"


class PowerBaseline(str, Enum):
    STREAM_12MP_30FPS = "Stream12MP30fps"
    NO_OCR_12FPS = "NoOcr12fps"


class NoAnchorError(ValueError):
    """Configuration has no table anchor; message names the nearest rows."""


@dataclass(frozen=True)
class StreamConfig:
    resolution: Resolution
    fps: int
    bitrate_bps: int

    def __post_init__(self) -> None:
        if self.fps < 1:
            raise ValueError(f"fps must be at least 1, got {self.fps}")
        if self.bitrate_bps < 1:
            raise ValueError(f"bitrate_bps must be at least 1, got {self.bitrate_bps}")


@dataclass(frozen=True)
class DeviceConfig:
    fps: int
    ocr_mode: OcrMode
    words_per_text_frame: float = 0.0

    def __post_init__(self) -> None:
        if not self.words_per_text_frame >= 0:  # NaN too
            raise ValueError(f"words_per_text_frame must be non-negative, got {self.words_per_text_frame}")


def _load_raw() -> bytes:
    return resources.files("wearocr.data").joinpath(_ANCHOR_RESOURCE).read_bytes()


def _first_row(first_rows: dict, key: tuple, section: str, index: int) -> None:
    """Record row ``index`` as the first with ``key``; a repeated key raises."""
    first = first_rows.setdefault(key, index)
    if first != index:
        raise ValueError(f"power anchors {section} row {index} repeats the key of row {first}")


class PowerAnchors:
    def __init__(self, raw: bytes | None = None):
        raw = raw if raw is not None else _load_raw()
        self.checksum = hashlib.sha256(raw).hexdigest()
        data = json.loads(raw)
        # First row index per key; stream keys have three parts, device keys two.
        first_rows: dict[tuple, int] = {}
        self.stream_rows: dict[tuple[Resolution, int, int], float] = {}
        for i, row in enumerate(data["stream"]["rows"]):
            key = (Resolution(row["resolution"]), row["fps"], row["bitrate_bps"])
            _first_row(first_rows, key, "stream", i)
            self.stream_rows[key] = float(row["multiplier"])
        # Word anchors per device row, in file order; a flat row is the
        # one anchor (0 words, multiplier).
        self.device_rows: dict[tuple[int, OcrMode], list[tuple[int, float]]] = {}
        for i, row in enumerate(data["device"]["rows"]):
            key = (row["fps"], OcrMode(row["ocr_mode"]))
            _first_row(first_rows, key, "device", i)
            if "words" in row:
                anchors = sorted((int(w), float(m)) for w, m in row["words"].items())
            else:
                anchors = [(0, float(row["multiplier"]))]
            self.device_rows[key] = anchors

    def stream_multiplier(self, config: StreamConfig) -> float:
        key = (config.resolution, config.fps, config.bitrate_bps)
        try:
            return self.stream_rows[key]
        except KeyError:
            rows = ", ".join(
                f"({r.value}, {fps} fps, {bps} bps)" for r, fps, bps in self.stream_rows
            )
            raise NoAnchorError(
                f"no streaming anchor for {config}; anchored rows: {rows}"
            ) from None

    def device_multiplier(self, config: DeviceConfig) -> float:
        try:
            anchors = self.device_rows[(config.fps, config.ocr_mode)]
        except KeyError:
            rows = ", ".join(f"({fps} fps, {mode.value})" for fps, mode in self.device_rows)
            raise NoAnchorError(
                f"no device anchor for ({config.fps} fps, {config.ocr_mode.value}); "
                f"anchored rows: {rows}"
            ) from None
        return piecewise_linear(anchors, min(config.words_per_text_frame, anchors[-1][0]))


@functools.cache
def default_anchors() -> PowerAnchors:
    return PowerAnchors()


def relative_power(config: StreamConfig | DeviceConfig) -> float:
    """Relative power multiplier for a configuration against its table family."""
    anchors = default_anchors()
    if isinstance(config, StreamConfig):
        return anchors.stream_multiplier(config)
    return anchors.device_multiplier(config)


@dataclass(frozen=True)
class SessionPowerReport:
    stream_multiplier: float
    stream_baseline: PowerBaseline
    device_multiplier: float
    device_baseline: PowerBaseline
    device_words_per_text_frame: float
    words_clamped: bool
    anchor_checksum: str


def session_power_report(
    stream_config: StreamConfig, device_config: DeviceConfig
) -> SessionPowerReport:
    """Side-by-side multipliers for the video path and the device OCR path.

    The two baselines are incommensurable; no combined figure is
    fabricated.  Word counts above the last anchor are clamped and
    flagged.
    """
    anchors = default_anchors()
    return SessionPowerReport(
        stream_multiplier=anchors.stream_multiplier(stream_config),
        stream_baseline=PowerBaseline.STREAM_12MP_30FPS,
        device_multiplier=anchors.device_multiplier(device_config),
        device_baseline=PowerBaseline.NO_OCR_12FPS,
        device_words_per_text_frame=device_config.words_per_text_frame,
        words_clamped=device_config.words_per_text_frame > 100,
        anchor_checksum=anchors.checksum,
    )
