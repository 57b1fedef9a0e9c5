"""Trace-driven simulator for a hybrid wearable/server text-VQA pipeline.

On-device smart frame selection feeds sparse high-resolution OCR
payloads over a bit-accounted link into a server-side session manager
and prompt builder, with table-anchored power, latency, and accuracy
models.
"""

__version__ = "0.1.0"
