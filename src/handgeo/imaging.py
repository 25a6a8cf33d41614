"""Scan ingestion and silhouette preprocessing.

The chain is: 8-bit BMP -> GrayImage -> low-pass filter -> threshold
binarization -> boundary ring. All operations are pure functions of their
inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, SizeError

DEFAULT_DPI = 100.0
DEFAULT_THRESHOLD = 0.07
DEFAULT_KERNEL_RADIUS = 1

#: Largest accepted box-filter radius: a 51x51 window, against the paper's
#: 3x3. The filter pads the image by the radius on every side, so this also
#: bounds its memory.
MAX_KERNEL_RADIUS = 25

#: Hard ceiling on accepted image dimensions (pixels per side).
MAX_SIDE = 5000

_METERS_PER_INCH = 0.0254
MM_PER_INCH = 25.4

#: Identity grey palette of save_bmp: BGRA quads (i, i, i, 0) for i = 0..255.
_GREY_PALETTE = bytes(b for i in range(256) for b in (i, i, i, 0))


@dataclass
class GrayImage:
    """Grayscale raster with intensities in [0, 1] and a physical resolution."""

    pixels: np.ndarray  # (height, width) float64
    dpi: float = DEFAULT_DPI

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        lo, hi = float(self.pixels.min()), float(self.pixels.max())
        if not (lo >= 0.0 and hi <= 1.0):  # also rejects NaN
            raise ValueError(f"intensities outside [0, 1]: min={lo}, max={hi}")
        if self.dpi <= 0:
            raise ValueError(f"dpi must be positive, got {self.dpi}")


@dataclass
class BinaryImage:
    """Monochrome raster with values in {0, 1}; dimensions match its source."""

    bits: np.ndarray  # (height, width) uint8
    dpi: float = DEFAULT_DPI

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 2 or self.bits.size == 0:
            raise ValueError("bits must be a non-empty 2-D array")
        if self.bits.max(initial=0) > 1:
            raise ValueError("bits must contain only 0 and 1")
        if self.dpi <= 0:
            raise ValueError(f"dpi must be positive, got {self.dpi}")


def _check_size(width: int, height: int) -> None:
    if width <= 0 or height <= 0:
        raise FormatError(f"non-positive image dimensions {width}x{height}")
    if width > MAX_SIDE or height > MAX_SIDE:
        raise SizeError(
            f"image {width}x{height} exceeds the {MAX_SIDE}x{MAX_SIDE} limit"
        )


def load_bmp(path: str | Path) -> GrayImage:
    """Decode an uncompressed 8-bit BMP as a grayscale image.

    Palette entries are reduced to luminance, pixel values map to
    intensity = value / 255, and dpi comes from the resolution fields
    (defaulting to 100 dpi when the file carries none).
    """
    data = Path(path).read_bytes()
    if len(data) < 54:
        raise FormatError(f"file too short for a BMP header ({len(data)} bytes)")
    if data[:2] != b"BM":
        raise FormatError(f"bad BMP signature {data[:2]!r}")
    pixel_offset = struct.unpack_from("<I", data, 10)[0]
    header_size = struct.unpack_from("<I", data, 14)[0]
    if header_size < 40:
        raise FormatError(f"unsupported DIB header size {header_size}")
    width, height_raw = struct.unpack_from("<ii", data, 18)
    bit_depth = struct.unpack_from("<H", data, 28)[0]
    compression = struct.unpack_from("<I", data, 30)[0]
    x_ppm = struct.unpack_from("<i", data, 38)[0]
    colors_used = struct.unpack_from("<I", data, 46)[0]

    if bit_depth != 8:
        raise FormatError(f"unsupported bit depth {bit_depth}")
    if colors_used > 256:
        raise FormatError(f"palette of {colors_used} colours exceeds the 256 of 8-bit pixels")
    if compression != 0:
        raise FormatError(f"unsupported compression {compression}")

    top_down = height_raw < 0
    height = -height_raw if top_down else height_raw
    _check_size(width, height)

    # Palette: BGRA quads immediately after the DIB header.
    n_colors = colors_used if colors_used else 256
    palette_start = 14 + header_size
    palette_end = palette_start + 4 * n_colors
    if palette_end > len(data):
        raise FormatError("truncated palette")
    quads = np.frombuffer(data[palette_start:palette_end], dtype=np.uint8)
    quads = quads.reshape(n_colors, 4).astype(np.float64)
    luminance = np.zeros(256, dtype=np.float64)
    luminance[:n_colors] = (
        0.299 * quads[:, 2] + 0.587 * quads[:, 1] + 0.114 * quads[:, 0]
    )

    row_stride = (width + 3) & ~3
    if pixel_offset + row_stride * height > len(data):
        raise FormatError("truncated pixel data")
    raw = np.frombuffer(
        data, dtype=np.uint8, count=row_stride * height, offset=pixel_offset
    ).reshape(height, row_stride)[:, :width]
    if not top_down:
        raw = raw[::-1]

    pixels = np.clip(luminance[raw], 0.0, 255.0) / 255.0
    dpi = x_ppm * _METERS_PER_INCH if x_ppm > 0 else DEFAULT_DPI
    return GrayImage(pixels=pixels, dpi=dpi)


def save_bmp(img: GrayImage, path: str | Path) -> None:
    """Write an 8-bit grayscale BMP (identity palette, bottom-up rows)."""
    height, width = img.pixels.shape
    _check_size(width, height)
    values = np.rint(img.pixels * 255.0).astype(np.uint8)
    row_stride = (width + 3) & ~3
    ppm = round(img.dpi / _METERS_PER_INCH)
    pixel_offset = 14 + 40 + 4 * 256
    file_size = pixel_offset + row_stride * height

    header = struct.pack("<2sIHHI", b"BM", file_size, 0, 0, pixel_offset)
    dib = struct.pack(
        "<IiiHHIIiiII",
        40, width, height, 1, 8, 0, row_stride * height, ppm, ppm, 256, 0,
    )
    rows = np.zeros((height, row_stride), dtype=np.uint8)
    rows[:, :width] = values[::-1]
    Path(path).write_bytes(header + dib + _GREY_PALETTE + rows.tobytes())


def lowpass_filter(img: GrayImage, kernel_radius: int = DEFAULT_KERNEL_RADIUS) -> GrayImage:
    """Box-average over the (2r+1)^2 neighbourhood with edge replication.

    Radius 0 is the identity. Plateaus where the whole window is constant
    come out bit-exact, so constant images are preserved exactly.
    """
    if not 0 <= kernel_radius <= MAX_KERNEL_RADIUS:
        raise ValueError(f"kernel_radius must be in [0, {MAX_KERNEL_RADIUS}], got {kernel_radius}")
    if kernel_radius == 0:
        return GrayImage(pixels=img.pixels.copy(), dpi=img.dpi)
    # Imported here: scipy.ndimage takes about 0.16 s to import, which the
    # processes that never filter an image (training workers, eval of a
    # features CSV) need not pay.
    from scipy import ndimage

    size = 2 * kernel_radius + 1
    out = ndimage.uniform_filter(img.pixels, size=size, mode="nearest")
    flat = ~_window_varies(img.pixels, kernel_radius)
    out[flat] = img.pixels[flat]
    return GrayImage(pixels=np.clip(out, 0.0, 1.0), dpi=img.dpi)


def _window_varies(pixels: np.ndarray, r: int) -> np.ndarray:
    """True where the edge-replicated (2r+1)^2 window holds two values.

    The window is 4-connected, so it is constant exactly when no pair of
    adjacent pixels inside it differs.
    """
    h, w = pixels.shape
    padded = np.pad(pixels, r, mode="edge")
    steps_x = padded[:, 1:] != padded[:, :-1]  # pair (i, j)-(i, j+1)
    steps_y = padded[1:, :] != padded[:-1, :]  # pair (i, j)-(i+1, j)
    # Window (i, j) spans padded rows i..i+2r and columns j..j+2r: 2r
    # horizontal pairs per row and 2r vertical pairs per column.
    rows = np.zeros((h + 2 * r, w), dtype=bool)
    for b in range(2 * r):
        rows |= steps_x[:, b : b + w]
    cols = np.zeros((h, w + 2 * r), dtype=bool)
    for a in range(2 * r):
        cols |= steps_y[a : a + h, :]
    varies = np.zeros((h, w), dtype=bool)
    for k in range(2 * r + 1):
        varies |= rows[k : k + h, :] | cols[:, k : k + w]
    return varies


def binarize(img: GrayImage, threshold: float = DEFAULT_THRESHOLD) -> BinaryImage:
    """Threshold to {0, 1}: output is 1 wherever intensity >= threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return BinaryImage(bits=(img.pixels >= threshold).astype(np.uint8), dpi=img.dpi)


def boundary_ring(img: BinaryImage) -> BinaryImage:
    """The silhouette's boundary: foreground pixels with a background 4-neighbour.

    Pixels outside the image count as foreground (edge replication), so a
    silhouette that runs off the image gets no edge along the border. A
    region with no 1-px features yields a closed, one-pixel-wide loop just
    inside its boundary; an empty or full image yields an empty map.
    """
    m = img.bits.astype(bool)
    interior = m.copy()
    interior[1:, :] &= m[:-1, :]
    interior[:-1, :] &= m[1:, :]
    interior[:, 1:] &= m[:, :-1]
    interior[:, :-1] &= m[:, 1:]
    return BinaryImage(bits=(m & ~interior).astype(np.uint8), dpi=img.dpi)


# perfbench resolves the edge stage by this name and wraps functions by
# identity, so the alias keeps its `imaging.detect_edges_log` span.
detect_edges_log = boundary_ring
