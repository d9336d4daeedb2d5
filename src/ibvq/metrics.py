"""Objective prosody evaluation: voicing decision error, gross pitch error,
F0 frame error, and mel-cepstral-style distortion over template channels.

Pitch is read directly out of the synthetic channel layout rather than
tracked, so the metrics are exact functions of the compared features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ibvq.errors import ShapeError
from ibvq.synthdata.types import F0_CHANNEL, TEMPLATE_START, VOICING_CHANNEL
from ibvq.synthdata.generate import norm_to_f0

GPE_THRESHOLD = 0.2
MCD_SCALE = 10.0 / np.log(10.0)


@dataclass
class PitchTrack:
    voiced: np.ndarray  # (T,) bool
    f0: np.ndarray      # (T,) Hz; meaningful only where voiced (0 elsewhere)

    def __len__(self) -> int:
        return int(self.voiced.size)


@dataclass
class MetricReport:
    vde: float
    gpe: float
    ffe: float
    mcd: float
    total_frames: int
    both_voiced_frames: int
    voicing_error_frames: int
    gross_error_frames: int


def extract_pitch(features: np.ndarray) -> PitchTrack:
    """Voicing from channel 1 (> 0.5), F0 from un-normalizing channel 0."""
    features = np.asarray(features, dtype=np.float64)
    voiced = features[:, VOICING_CHANNEL] > 0.5
    norm = np.clip(features[:, F0_CHANNEL], 0.0, 1.0)
    f0 = np.where(voiced, norm_to_f0(norm), 0.0)
    return PitchTrack(voiced=voiced, f0=f0)


@lru_cache(maxsize=None)
def dct_basis(n: int) -> np.ndarray:
    """(n, n) orthonormal DCT-II basis, one coefficient per column:
    entry (i, k) is sqrt(2/n) cos(pi (2i + 1) k / 2n), column 0 scaled to
    1/sqrt(n). Read-only, since it is built once per width and shared."""
    i = np.arange(n, dtype=np.float64)[:, None]
    k = np.arange(n, dtype=np.float64)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2.0 * i + 1.0) * k / (2.0 * n))
    basis[:, 0] = 1.0 / np.sqrt(n)
    basis.flags.writeable = False
    return basis


def cepstra(features: np.ndarray) -> np.ndarray:
    """Orthonormal DCT of the template channels, per frame, coefficient 0
    dropped (it only carries the channel mean)."""
    tpl = np.asarray(features, dtype=np.float64)[:, TEMPLATE_START:]
    return (tpl @ dct_basis(tpl.shape[1]))[:, 1:]


def mcd(ref_features: np.ndarray, hyp_features: np.ndarray) -> float:
    """Frame-mean of (10/ln 10) * sqrt(2 * sum_d (c_d - c_d_hat)^2)."""
    ref_features = np.asarray(ref_features)
    hyp_features = np.asarray(hyp_features)
    if ref_features.shape != hyp_features.shape:
        raise ShapeError(
            f"feature shapes differ: {ref_features.shape} vs {hyp_features.shape}"
        )
    diff = cepstra(ref_features) - cepstra(hyp_features)
    per_frame = MCD_SCALE * np.sqrt(2.0 * np.sum(diff**2, axis=1))
    return float(per_frame.mean())


def compare(ref_features: np.ndarray, hyp_features: np.ndarray) -> MetricReport:
    """All four metrics plus the exact frame counts behind each denominator.

    VDE is the percent of frames whose voicing decision differs. GPE is the
    percent of both-voiced frames whose F0 deviates from the reference by
    more than ``GPE_THRESHOLD`` of it; 0 when no frame is voiced in both.
    FFE is the percent of all frames with either error.
    """
    ref = extract_pitch(ref_features)
    hyp = extract_pitch(hyp_features)
    if len(ref) != len(hyp):
        raise ShapeError(f"track lengths differ: {len(ref)} vs {len(hyp)}")
    t = len(ref)
    v_err = int(np.sum(ref.voiced != hyp.voiced))
    both = ref.voiced & hyp.voiced
    n_both = int(both.sum())
    g_err = int(np.sum(np.abs(hyp.f0[both] - ref.f0[both]) > GPE_THRESHOLD * ref.f0[both]))
    return MetricReport(
        vde=100.0 * v_err / t,
        gpe=100.0 * g_err / n_both if n_both else 0.0,
        ffe=100.0 * (v_err + g_err) / t,
        mcd=mcd(ref_features, hyp_features),
        total_frames=t,
        both_voiced_frames=n_both,
        voicing_error_frames=v_err,
        gross_error_frames=g_err,
    )
