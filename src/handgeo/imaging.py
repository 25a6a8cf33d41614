"""Scan ingestion and silhouette preprocessing.

The chain is: 8-bit BMP -> GrayImage -> low-pass filter -> threshold
binarization -> boundary ring. The last two are BinaryImages, whose bits
are a bool mask. `silhouette` is the filter and the threshold in one call,
which decides an 8-bit scan from integer window sums of its levels. All
operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
import numbers
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

#: Entries of load_bmp's index block, 64 KiB of intp: at least one row of
#: MAX_SIDE pixels.
_BLOCK = 8192

_METERS_PER_INCH = 0.0254
MM_PER_INCH = 25.4

#: Identity grey palette of save_bmp: BGRA quads (i, i, i, 0) for i = 0..255.
_GREY_PALETTE = bytes(b for i in range(256) for b in (i, i, i, 0))

#: A threshold whose window-sum equivalent q lies within this much of an
#: integer sends silhouette to the float route; see silhouette for the bound.
_LEVEL_GUARD = 1e-6


def check_dpi(dpi: float, error: type[Exception]) -> None:
    """error unless dpi is a positive, finite resolution."""
    if not 0.0 < dpi < math.inf:
        raise error(f"dpi must be positive and finite, got {dpi}")


def check_threshold(threshold: float, error: type[Exception]) -> None:
    """error unless binarize can threshold at this intensity."""
    if not 0.0 <= threshold <= 1.0:
        raise error(f"threshold must be in [0, 1], got {threshold}")


def check_kernel_radius(kernel_radius: int, error: type[Exception]) -> None:
    """error unless lowpass_filter takes this radius: an integer in [0, MAX_KERNEL_RADIUS]."""
    if not isinstance(kernel_radius, numbers.Integral):
        raise error(f"kernel_radius must be an integer, got {kernel_radius!r}")
    if not 0 <= kernel_radius <= MAX_KERNEL_RADIUS:
        raise error(f"kernel_radius must be in [0, {MAX_KERNEL_RADIUS}], got {kernel_radius}")


@dataclass
class GrayImage:
    """Grayscale raster with intensities in [0, 1] and a physical resolution.

    An 8-bit scan (load_bmp of a BMP with save_bmp's identity palette, or
    quantize) also keeps its `levels`, the bytes its pixels were read from.
    Its pixels are read-only, and assigning new pixels drops the levels, as
    does a copy or pickle, so an image's levels always belong to its pixels.
    """

    pixels: np.ndarray  # (height, width) float64
    dpi: float = DEFAULT_DPI

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        lo, hi = float(self.pixels.min()), float(self.pixels.max())
        if not (lo >= 0.0 and hi <= 1.0):  # also rejects NaN
            raise ValueError(f"intensities outside [0, 1]: min={lo}, max={hi}")
        check_dpi(self.dpi, ValueError)

    def __setattr__(self, name: str, value) -> None:
        if name == "pixels":
            object.__setattr__(self, "_levels", None)
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        # copy.deepcopy and pickle give writable pixels, so a copy keeps no levels.
        return {"pixels": self.pixels, "dpi": self.dpi, "_levels": None}

    @property
    def levels(self) -> np.ndarray | None:
        """The read-only (height, width) uint8 levels of an 8-bit scan, whose
        pixels are the identity ramp's intensities of them; None otherwise."""
        return self._levels

    @classmethod
    def _in_range(cls, pixels: np.ndarray, dpi: float) -> GrayImage:
        """A GrayImage of non-empty 2-D float64 pixels that their producer
        proved to lie in [0, 1], built without scanning them."""
        check_dpi(dpi, ValueError)
        img = object.__new__(cls)
        img.pixels, img.dpi = pixels, dpi
        return img

    @classmethod
    def _scan(cls, levels: np.ndarray, dpi: float) -> GrayImage:
        """The 8-bit scan of non-empty 2-D uint8 levels under the identity
        ramp. The levels are kept as given, made read-only."""
        img = cls._in_range(_gather(_GREY_RAMP, levels), dpi)
        img.pixels.flags.writeable = False
        levels.flags.writeable = False
        img._levels = levels
        return img


@dataclass
class BinaryImage:
    """Monochrome raster as a bool mask, built from any array of 0 and 1;
    dimensions match its source."""

    bits: np.ndarray  # (height, width) bool
    dpi: float = DEFAULT_DPI

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 2 or bits.size == 0:
            raise ValueError("bits must be a non-empty 2-D array")
        if bits.dtype != bool and not ((bits == 0) | (bits == 1)).all():
            raise ValueError("bits must contain only 0 and 1")
        self.bits = bits.astype(bool, copy=False)
        check_dpi(self.dpi, ValueError)


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
    (defaulting to 100 dpi when the file carries none). A dpi save_bmp wrote
    on the 0.1-dpi grid reads back exactly. The pixel data must start at or
    after the palette's end, 14 + header size + 4 * colours bytes in. Under
    save_bmp's identity palette the image is an 8-bit scan: it keeps the
    file's bytes as its levels, a read-only view of them.
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
    if pixel_offset < palette_end:
        raise FormatError(
            f"pixel data offset {pixel_offset} lies inside the headers and palette,"
            f" which end at offset {palette_end}"
        )
    row_stride = (width + 3) & ~3
    if pixel_offset + row_stride * height > len(data):
        raise FormatError("truncated pixel data")
    raw = np.frombuffer(
        data, dtype=np.uint8, count=row_stride * height, offset=pixel_offset
    ).reshape(height, row_stride)[:, :width]
    if not top_down:
        raw = raw[::-1]
    dpi = _dpi_of(x_ppm) if x_ppm > 0 else DEFAULT_DPI
    palette = data[palette_start:palette_end]
    if palette == _GREY_PALETTE:
        return GrayImage._scan(raw, dpi)
    # Every value is an entry of the clipped and scaled table.
    return GrayImage._in_range(_gather(_intensity(palette), raw), dpi)


def _intensity(palette: bytes) -> np.ndarray:
    """Each byte's intensity under a palette of BGRA quads: its entry's
    luminance, clipped to [0, 255] and scaled to [0, 1]; a byte past the
    palette's end reads 0. Only the 256 entries are clipped and scaled,
    not every pixel."""
    quads = np.frombuffer(palette, dtype=np.uint8).reshape(-1, 4).astype(np.float64)
    luminance = np.zeros(256, dtype=np.float64)
    luminance[: len(quads)] = (
        0.299 * quads[:, 2] + 0.587 * quads[:, 1] + 0.114 * quads[:, 0]
    )
    return np.clip(luminance, 0.0, 255.0) / 255.0


#: The intensities of save_bmp's identity palette, within 1.5 * 2**-53 of
#: v / 255 for every byte v (measured exactly; see silhouette).
_GREY_RAMP = _intensity(_GREY_PALETTE)


def _gather(table: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """table[raw] as a new (height, width) float64 raster, for 2-D uint8 raw.

    take over intp indices gathers a 235x177 scan in half the time of
    indexing by the bytes. The indices are converted a block of rows at a
    time: an index array of the whole raster is too large for the heap, so
    its pages were mapped and faulted in afresh for every image.
    """
    height, width = raw.shape
    pixels = np.empty((height, width))
    rows = _BLOCK // width
    index = np.empty((rows, width), dtype=np.intp)
    for top in range(0, height, rows):
        block = raw[top : top + rows]
        np.copyto(index[: len(block)], block)
        table.take(index[: len(block)], mode="clip", out=pixels[top : top + rows])
    return pixels


def _dpi_of(ppm: int) -> float:
    """The dpi on the 0.1-dpi grid that save_bmp writes as ppm px/m, else
    ppm converted. A 0.1-dpi step is 3.94 px/m, so at most one grid value
    rounds to a given ppm, and it is the one nearest ppm converted."""
    exact = ppm * _METERS_PER_INCH
    dpi = round(exact, 1)
    return dpi if round(dpi / _METERS_PER_INCH) == ppm else exact


def quantize(img: GrayImage) -> GrayImage:
    """The image as an 8-bit BMP holds it: each intensity rounded to the
    nearest of 256 levels, as save_bmp writes them, with the pixels load_bmp
    reads back. An image that has levels is already that image."""
    if img.levels is not None:
        return img
    return GrayImage._scan(np.rint(img.pixels * 255.0).astype(np.uint8), img.dpi)


def save_bmp(img: GrayImage, path: str | Path) -> None:
    """Write an 8-bit grayscale BMP (identity palette, bottom-up rows) of
    quantize(img). A dpi whose px/m is no positive int32 (0 reads back as
    none) is refused."""
    height, width = img.pixels.shape
    _check_size(width, height)
    ppm = round(img.dpi / _METERS_PER_INCH)
    if not 0 < ppm < 2**31:
        raise ValueError(f"dpi {img.dpi} is {ppm} px/m, outside a BMP's 1..{2**31 - 1}")
    values = quantize(img).levels
    row_stride = (width + 3) & ~3
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
    come out bit-exact, so constant images are preserved exactly. No mean
    needs clipping: each rounded partial sum of k intensities in [0, 1]
    lies in [0, k], as rounding is monotone and k is exact, so the rounded
    sum over k = (2r+1)^2 pixels divided by k lies in [0, 1]. So the result
    is built without GrayImage's range scan.
    """
    check_kernel_radius(kernel_radius, ValueError)
    if kernel_radius == 0:
        return GrayImage._in_range(img.pixels.copy(), img.dpi)
    # NumPy alone: importing SciPy's image module would add about 0.3 s and
    # 20 MB to every process that extracts.
    r, n = kernel_radius, 2 * kernel_radius + 1
    height, width = img.pixels.shape
    # The edge-padded image and the scratch raster share one block. With two
    # blocks of this size, freed after every image, glibc handed their pages
    # back to the OS and faulted them in again for the next image: a default
    # gen pass took 62 000 minor page faults, against 11 000-20 000 with one.
    padded, spare = np.empty((2, height + 2 * r, width + 2 * r))
    _edge_pad(img.pixels, r, padded)
    flat = ~_window_varies(padded, r)
    _box(np.add, padded.reshape(-1), spare.reshape(-1), n, n, padded.shape[1])
    # The window sums are now in padded; the means go to the front of spare.
    out = np.divide(
        padded[:height, :width], n * n,
        out=spare.reshape(-1)[: height * width].reshape(height, width),
    )
    np.copyto(out, img.pixels, where=flat)
    return GrayImage._in_range(out, img.dpi)


def _edge_pad(raster: np.ndarray, r: int, out: np.ndarray) -> None:
    """Fill out, r > 0 larger than raster on every side, with raster padded
    by edge replication."""
    out[r:-r, r:-r] = raster
    out[r:-r, :r] = raster[:, :1]
    out[r:-r, -r:] = raster[:, -1:]
    out[:r] = out[r]
    out[-r:] = out[-r - 1]


def _runs(op, x: np.ndarray, n: int, step: int, spare: np.ndarray) -> None:
    """Set x[k] to `op` reduced over x[k], x[k + step], ..., x[k + (n-1) step]
    wherever that run lies inside x; the rest of x is unspecified, and
    spare, of the same length, is scratch.

    `op` is an associative ufunc; x and spare are 1-D. Runs of 1, 2, 4, ...
    entries double in place until a binary digit of n selects one, which x
    then keeps as the total. The runs double on in spare, and the total
    gathers the runs the later digits select, so the cost is O(log n)
    passes and none of them copies x.
    """
    runs, done, length = x, 0, 1  # x[k] covers `done` entries; runs[k] covers `length`
    while True:
        if n & 1:
            if done:
                s = done * step
                op(x[:-s], runs[s:], out=x[:-s])
            done += length
        n >>= 1
        if not n:
            return
        s = length * step
        if done and runs is x:
            # The tail copy leaves spare as doubling x in place would leave
            # x, so no later pass reads uninitialised memory.
            op(x[:-s], x[s:], out=spare[:-s])
            spare[-s:] = x[-s:]
            runs = spare
        else:
            # In place. NumPy computes overlapping operands as if runs[s:]
            # were copied first, and these contiguous views read ahead of
            # the writes, so it needs no copy.
            op(runs[:-s], runs[s:], out=runs[:-s])
        length *= 2


def _box(
    op, raster: np.ndarray, spare: np.ndarray, rows: int, cols: int, width: int
) -> np.ndarray:
    """`op` reduced over every rows x cols window of a raster of the given
    width, flattened: entry i * width + j reduces the window whose top-left
    pixel is (i, j). Entries whose window leaves the raster are unspecified.

    A step of one entry is a step of one column and a step of `width`
    entries one row, so both passes run over contiguous 1-D arrays. The
    raster is overwritten and holds the result; spare, of the same size,
    is scratch.
    """
    _runs(op, raster, cols, 1, spare)
    _runs(op, raster, rows, width, spare)
    return raster


def _window_varies(padded: np.ndarray, r: int) -> np.ndarray:
    """True where the (2r+1)^2 window of an image edge-padded by r holds two
    values.

    A window is constant exactly when each of its rows is constant and its
    first column is constant.
    """
    rows, width = padded.shape
    p = padded.ravel()
    steps_x = np.zeros(p.size, dtype=bool)  # pair (i, j)-(i, j+1)
    np.not_equal(p[1:], p[:-1], out=steps_x[:-1])
    steps_y = np.zeros(p.size, dtype=bool)  # pair (i, j)-(i+1, j)
    np.not_equal(p[width:], p[:-width], out=steps_y[:-width])
    # Window (i, j) spans padded rows i..i+2r and columns j..j+2r: 2r
    # horizontal pairs in each of its rows, 2r vertical pairs down column j.
    n = 2 * r + 1
    spare = np.empty_like(steps_x)
    varies = _box(np.logical_or, steps_x, spare, n, 2 * r, width)
    _runs(np.logical_or, steps_y, 2 * r, width, spare)
    varies |= steps_y
    return varies.reshape(rows, width)[: rows - 2 * r, : width - 2 * r]


def binarize(img: GrayImage, threshold: float = DEFAULT_THRESHOLD) -> BinaryImage:
    """Threshold to a mask: True wherever intensity >= threshold."""
    check_threshold(threshold, ValueError)
    return BinaryImage(bits=img.pixels >= threshold, dpi=img.dpi)


def silhouette(
    img: GrayImage,
    kernel_radius: int = DEFAULT_KERNEL_RADIUS,
    threshold: float = DEFAULT_THRESHOLD,
) -> BinaryImage:
    """binarize(lowpass_filter(img, kernel_radius), threshold), bit for bit.

    An 8-bit scan is decided from its levels instead. With S the sum of the
    k = (2r+1)^2 edge-replicated levels in a pixel's window, taken in uint16
    (uint32 above r = 7, where 255 k passes 65535), and q = threshold * 255 k,
    the pixel is foreground where S >= ceil(q).

    Why that is exact, with u = 2**-53. Each identity-ramp intensity lies
    within 1.5u of v / 255. The float route's mean adds k of them, in
    whatever order, and divides once, so it lies within (k + 2)u of
    S / (255 k); a flat window keeps its pixel, within 1.5u. In sum units
    (times 255 k, at most 663,255 at r = 25) that is under 2e-7, and q's
    two roundings add under 2e-10. So wherever q lies more than
    _LEVEL_GUARD = 1e-6 from an integer, mean >= threshold exactly when
    S >= ceil(q). Nearer an integer (a threshold of 18/255 at r = 0, say)
    float rounding could decide, so that threshold takes the float route,
    as does an image without levels: a float image, or a BMP under another
    palette.
    """
    check_kernel_radius(kernel_radius, ValueError)
    check_threshold(threshold, ValueError)
    q = threshold * 255.0 * (2 * kernel_radius + 1) ** 2
    if img.levels is None or abs(q - round(q)) <= _LEVEL_GUARD:
        return binarize(lowpass_filter(img, kernel_radius), threshold)
    return BinaryImage(bits=_level_sums(img.levels, kernel_radius) >= math.ceil(q), dpi=img.dpi)


def _level_sums(levels: np.ndarray, r: int) -> np.ndarray:
    """Each pixel's (2r+1)^2 window sum of the edge-replicated uint8 levels,
    exact in the narrowest unsigned type that holds 255 (2r+1)^2: the levels
    themselves at r = 0."""
    if r == 0:
        return levels
    n = 2 * r + 1
    dtype = np.uint16 if 255 * n * n <= np.iinfo(np.uint16).max else np.uint32
    height, width = levels.shape
    padded, spare = np.empty((2, height + 2 * r, width + 2 * r), dtype=dtype)
    _edge_pad(levels, r, padded)
    _box(np.add, padded.reshape(-1), spare.reshape(-1), n, n, padded.shape[1])
    return padded[:height, :width]


def boundary_ring(img: BinaryImage) -> BinaryImage:
    """The silhouette's boundary: foreground pixels with a background 4-neighbour.

    Pixels outside the image count as foreground (edge replication), so a
    silhouette that runs off the image gets no edge along the border. A
    region with no 1-px features yields a closed, one-pixel-wide loop just
    inside its boundary; an empty or full image yields an empty map.
    """
    m = img.bits
    interior = m.copy()
    interior[1:, :] &= m[:-1, :]
    interior[:-1, :] &= m[1:, :]
    interior[:, 1:] &= m[:, :-1]
    interior[:, :-1] &= m[:, 1:]
    return BinaryImage(bits=m & ~interior, dpi=img.dpi)


# perfbench resolves the edge stage by this name and wraps functions by
# identity, so the alias keeps its `imaging.detect_edges_log` span.
detect_edges_log = boundary_ring
