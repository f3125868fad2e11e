"""Axis-aligned boxes and the head-to-body extrapolation used across the library."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BBox",
    "GeometryError",
    "body_from_head",
    "iou",
]


class GeometryError(ValueError):
    """Raised for degenerate geometry (non-positive box width or height)."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, top-left corner plus size, in pixels.

    Boxes may extend outside the image; nothing in the geometry layer clips.
    """

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center_x(self) -> float:
        return self.x + self.w / 2.0

    def require_valid(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise GeometryError(f"degenerate box: w={self.w}, h={self.h}")


# the body box is this many head widths wide and head heights tall
_BODY_WIDTH_SCALE = 3.0
_BODY_HEIGHT_SCALE = 6.0


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]. Symmetric."""
    a.require_valid()
    b.require_valid()
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def body_from_head(head: BBox) -> BBox:
    """Extrapolate a full-body box from a head box.

    The body is 3 head widths wide and 6 head heights tall, centered on the
    head's horizontal center, and keeps the head's top edge. Deterministic
    and scale-equivariant: scaling the head coordinates by s scales the
    output by s. The result is never clipped to the image; callers that clip
    must record having done so.
    """
    head.require_valid()
    w = _BODY_WIDTH_SCALE * head.w
    h = _BODY_HEIGHT_SCALE * head.h
    return BBox(head.center_x - w / 2.0, head.y, w, h)
