"""Capacity-controlled vector-quantized prosody representation learning.

A desk-scale toolkit: a grouped vector-quantized bottleneck with exact,
adjustable information capacity, a word-level reference encoder, a
conditional decoder, objective prosody metrics, mutual-information analysis,
and a text-to-prosody predictor, trained and evaluated on a synthetic corpus
with known ground-truth prosody factors.
"""

__version__ = "0.1.0"
