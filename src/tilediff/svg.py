"""Minimal deterministic SVG writer for window and diffraction plots.

Hand-rolled so that identical inputs produce byte-identical files; all
coordinates are formatted with fixed precision.
"""

from __future__ import annotations

__all__ = ["SvgCanvas", "PALETTE"]

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _f(x: float) -> str:
    return format(float(x), ".6f").rstrip("0").rstrip(".")


class SvgCanvas:
    """Maps a data bounding box onto a pixel canvas (y axis flipped)."""

    def __init__(self, bbox, size=640, margin=20):
        x0, y0, x1, y1 = bbox
        if x1 <= x0:
            x1 = x0 + 1.0
        if y1 <= y0:
            y1 = y0 + 1.0
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        span = max(x1 - x0, y1 - y0)
        self.scale = (size - 2 * margin) / span
        self.width = int(round((x1 - x0) * self.scale)) + 2 * margin
        self.height = int(round((y1 - y0) * self.scale)) + 2 * margin
        self.margin = margin
        self._parts: list[str] = []

    def map(self, x, y) -> tuple:
        """Pixel coordinates of data coordinates, floats or float arrays."""
        px = self.margin + (x - self.x0) * self.scale
        py = self.height - self.margin - (y - self.y0) * self.scale
        return px, py

    def circles(self, xs, ys, radii):
        """Opaque disks of fill #111111 at the data points ``xs``, ``ys``,
        of pixel radii ``radii`` >= 0 (float arrays, mapped at once)."""
        px, py = self.map(xs, ys)
        self._parts += [f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" '
                        'fill="#111111"/>'
                        for x, y, r in zip(px.tolist(), py.tolist(),
                                           radii.tolist())]

    def rect(self, x, y, w, h, color="#000000", opacity=1.0):
        """Rectangle given in data coordinates (x, y lower-left corner)."""
        px, py = self.map(x, y + h)
        op = "" if opacity >= 1.0 else f' fill-opacity="{_f(opacity)}"'
        self._parts.append(
            f'<rect x="{_f(px)}" y="{_f(py)}" width="{_f(w * self.scale)}" '
            f'height="{_f(h * self.scale)}" fill="{color}"{op}/>')

    def text(self, x, y, s):
        """Label ``s`` at font size 12 in #333333."""
        px, py = self.map(x, y)
        self._parts.append(
            f'<text x="{_f(px)}" y="{_f(py)}" font-size="12" '
            f'fill="#333333" font-family="sans-serif">{s}</text>')

    def write(self, path) -> None:
        body = "\n".join(self._parts)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} '
                f'{self.height}">\n<rect width="100%" height="100%" '
                f'fill="#ffffff"/>\n{body}\n</svg>\n')
