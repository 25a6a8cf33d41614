"""Fixtures shared by several test modules."""

import dataclasses

import numpy as np
import pytest

import handgeo.synthgen as synthgen
from handgeo.imaging import GrayImage


@pytest.fixture()
def merged_scan():
    """Draw the canonical hand with its palm narrowed by ``shrink`` px at
    100 dpi, noise-free and unvalidated.

    ``render`` rejects such a hand because its finger bases run into one
    another, so this fills the layout's row cuts directly: detectors must
    reject the scan too.
    """

    def draw(shrink: float) -> GrayImage:
        base = synthgen.canonical_params()
        params = dataclasses.replace(base, palm_width=base.palm_width - shrink)
        lay = synthgen._layout(params, 1.0)
        mask = synthgen._rasterize(synthgen._row_cuts(lay), lay.width)
        pixels = np.where(mask, synthgen._FOREGROUND, synthgen._BACKGROUND)
        return GrayImage(pixels=pixels, dpi=synthgen.REFERENCE_DPI)

    return draw
