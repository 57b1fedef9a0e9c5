import json
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearocr.model import Resolution
from wearocr.power import (
    DeviceConfig,
    NoAnchorError,
    OcrMode,
    PowerAnchors,
    PowerBaseline,
    StreamConfig,
    default_anchors,
    relative_power,
    session_power_report,
)

STREAM_ROWS = [
    (StreamConfig(Resolution.MP12, 30, 3_000_000), 1.00),
    (StreamConfig(Resolution.MP3, 30, 1_000_000), 0.83),
    (StreamConfig(Resolution.MP3, 12, 1_000_000), 0.65),
    (StreamConfig(Resolution.MP3, 2, 500_000), 0.49),
]

DEVICE_FLAT_ROWS = [
    (DeviceConfig(12, OcrMode.NO_OCR), 1.00),
    (DeviceConfig(2, OcrMode.NO_OCR), 0.85),
]

DEVICE_WORD_ROWS = [
    (12, OcrMode.OCR_ALL_FRAMES, {0: 1.42, 30: 1.68, 100: 1.88}),
    (12, OcrMode.OCR_SAMPLED_2FPS, {0: 1.31, 30: 1.54, 100: 1.77}),
    (2, OcrMode.OCR_ALL_FRAMES, {0: 0.95, 30: 1.06, 100: 1.08}),
    (2, OcrMode.SFS_12MP_INPUT, {0: 1.05, 30: 1.11, 100: 1.19}),
    (2, OcrMode.SFS_3MP_INPUT, {0: 0.91, 30: 0.94, 100: 0.96}),
]


class TestStreamAnchors:
    @pytest.mark.parametrize("config,expected", STREAM_ROWS)
    def test_exact(self, config, expected):
        assert relative_power(config) == expected

    def test_unanchored_raises_and_names_rows(self):
        with pytest.raises(NoAnchorError) as excinfo:
            relative_power(StreamConfig(Resolution.MP5, 30, 3_000_000))
        message = str(excinfo.value)
        assert "MP12" in message and "500000" in message


class TestDeviceAnchors:
    @pytest.mark.parametrize("config,expected", DEVICE_FLAT_ROWS)
    def test_flat_rows(self, config, expected):
        assert relative_power(config) == expected

    @pytest.mark.parametrize("fps,mode,table", DEVICE_WORD_ROWS)
    def test_word_anchors_exact(self, fps, mode, table):
        for words, expected in table.items():
            assert relative_power(DeviceConfig(fps, mode, words)) == expected

    def test_midpoint_interpolation(self):
        # Halfway along the (30, 0.94)-(100, 0.96) segment.
        assert relative_power(
            DeviceConfig(2, OcrMode.SFS_3MP_INPUT, 65)
        ) == pytest.approx(0.95)

    def test_clamp_above_last_anchor(self):
        at_100 = relative_power(DeviceConfig(2, OcrMode.SFS_3MP_INPUT, 100))
        assert relative_power(DeviceConfig(2, OcrMode.SFS_3MP_INPUT, 5000)) == at_100

    def test_unanchored_raises_and_names_rows(self):
        with pytest.raises(NoAnchorError) as excinfo:
            relative_power(DeviceConfig(30, OcrMode.OCR_ALL_FRAMES))
        message = str(excinfo.value)
        assert "Sfs3MpInput" in message and "NoOcr" in message

    def test_negative_words_rejected(self):
        with pytest.raises(ValueError):
            DeviceConfig(2, OcrMode.SFS_3MP_INPUT, -1)

    def test_nan_words_rejected(self):
        with pytest.raises(ValueError, match="non-negative, got nan"):
            DeviceConfig(2, OcrMode.SFS_3MP_INPUT, float("nan"))

    @pytest.mark.parametrize("words", [0, 30, 250])
    def test_flat_rows_ignore_words(self, words):
        for config, expected in DEVICE_FLAT_ROWS:
            assert relative_power(replace(config, words_per_text_frame=words)) == expected

    @pytest.mark.parametrize("fps,mode,table", DEVICE_WORD_ROWS)
    @given(a=st.floats(min_value=0, max_value=200), b=st.floats(min_value=0, max_value=200))
    @settings(max_examples=40)
    def test_monotone_in_words(self, fps, mode, table, a, b):
        lo, hi = sorted((a, b))
        assert relative_power(DeviceConfig(fps, mode, lo)) <= relative_power(
            DeviceConfig(fps, mode, hi)
        )

    def test_linear_oracle_between_anchors(self):
        # Independent straight-line check across every adjacent anchor pair.
        for fps, mode, table in DEVICE_WORD_ROWS:
            points = sorted(table.items())
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                for frac in (0.25, 0.5, 0.75):
                    words = x0 + frac * (x1 - x0)
                    expected = y0 + frac * (y1 - y0)
                    assert relative_power(
                        DeviceConfig(fps, mode, words)
                    ) == pytest.approx(expected)


class TestSessionReport:
    def test_baselines_kept_separate(self):
        report = session_power_report(
            StreamConfig(Resolution.MP3, 2, 500_000),
            DeviceConfig(2, OcrMode.SFS_3MP_INPUT, 30),
        )
        assert report.stream_multiplier == 0.49
        assert report.device_multiplier == 0.94
        assert report.stream_baseline is PowerBaseline.STREAM_12MP_30FPS
        assert report.device_baseline is PowerBaseline.NO_OCR_12FPS
        # No field of the report fuses the two families into one number.
        assert not hasattr(report, "combined_multiplier")

    def test_clamp_is_flagged(self):
        report = session_power_report(
            StreamConfig(Resolution.MP12, 30, 3_000_000),
            DeviceConfig(2, OcrMode.SFS_3MP_INPUT, 250),
        )
        assert report.words_clamped
        assert report.device_multiplier == 0.96

    def test_checksum_pins_anchor_file(self):
        report = session_power_report(
            StreamConfig(Resolution.MP12, 30, 3_000_000), DeviceConfig(12, OcrMode.NO_OCR)
        )
        assert report.anchor_checksum == default_anchors().checksum
        assert len(report.anchor_checksum) == 64

    def test_custom_anchor_bytes_change_checksum_and_values(self):
        raw = json.dumps(
            {
                "version": 1,
                "stream": {
                    "baseline": "x",
                    "rows": [
                        {
                            "resolution": "MP12",
                            "fps": 30,
                            "bitrate_bps": 3_000_000,
                            "multiplier": 2.0,
                        }
                    ],
                },
                "device": {
                    "baseline": "y",
                    "rows": [{"fps": 12, "ocr_mode": "NoOcr", "multiplier": 1.0}],
                },
            }
        ).encode()
        anchors = PowerAnchors(raw)
        assert anchors.checksum != default_anchors().checksum
        assert anchors.stream_multiplier(StreamConfig(Resolution.MP12, 30, 3_000_000)) == 2.0


class TestDuplicateRows:
    @staticmethod
    def packaged_with(section, row):
        raw = resources.files("wearocr.data").joinpath("power_anchors.json").read_bytes()
        data = json.loads(raw)
        data[section]["rows"].append(row)
        return json.dumps(data).encode()

    def test_repeated_stream_key_names_both_rows(self):
        raw = self.packaged_with(
            "stream", {"resolution": "MP3", "fps": 12, "bitrate_bps": 1_000_000, "multiplier": 9.0}
        )
        with pytest.raises(ValueError, match=r"^power anchors stream row 4 repeats the key of row 2$"):
            PowerAnchors(raw)

    def test_repeated_device_key_names_both_rows(self):
        raw = self.packaged_with("device", {"fps": 12, "ocr_mode": "NoOcr", "multiplier": 7.0})
        with pytest.raises(ValueError, match=r"^power anchors device row 7 repeats the key of row 0$"):
            PowerAnchors(raw)

    def test_word_row_repeating_a_flat_row_is_refused(self):
        raw = self.packaged_with("device", {"fps": 2, "ocr_mode": "NoOcr", "words": {"0": 1.0, "100": 2.0}})
        with pytest.raises(ValueError, match=r"device row 7 repeats the key of row 1$"):
            PowerAnchors(raw)
