import numpy as np
import pytest

from partfusion import BBox, GeometryError, body_from_head, iou


class TestIoU:
    def test_identical_boxes(self):
        a = BBox(3.0, 4.0, 10.0, 20.0)
        assert iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 5, 5), BBox(100, 100, 5, 5)) == 0.0

    def test_hand_case_one_third(self):
        # overlap 1x2 = 2, union 4 + 4 - 2 = 6
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 30, 2))
            b = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 30, 2))
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(GeometryError):
            iou(BBox(0, 0, 0.0, 5.0), BBox(0, 0, 5, 5))
        with pytest.raises(GeometryError):
            iou(BBox(0, 0, 5, 5), BBox(0, 0, 5, -1.0))

    def test_touching_boxes_no_area(self):
        assert iou(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)) == 0.0


class TestBodyFromHead:
    def test_default_factors(self):
        # width tripled, height six-fold, horizontally centered, top-aligned
        body = body_from_head(BBox(0.0, 0.0, 20.0, 20.0))
        assert (body.x, body.y, body.w, body.h) == (-20.0, 0.0, 60.0, 120.0)

    def test_unit_square_head(self):
        body = body_from_head(BBox(10.0, 10.0, 10.0, 10.0))
        assert (body.w, body.h) == (30.0, 60.0)
        assert body.y == 10.0
        assert body.center_x == pytest.approx(15.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            head = BBox(*rng.uniform(-20, 20, 2), *rng.uniform(1, 15, 2))
            s = float(rng.uniform(0.1, 8.0))
            scaled = BBox(head.x * s, head.y * s, head.w * s, head.h * s)
            a = body_from_head(head)
            b = body_from_head(scaled)
            np.testing.assert_allclose(
                [b.x, b.y, b.w, b.h], [a.x * s, a.y * s, a.w * s, a.h * s], rtol=1e-12
            )

    def test_no_clipping_below_zero(self):
        body = body_from_head(BBox(1.0, 1.0, 10.0, 10.0))
        assert body.x < 0

    def test_non_square_head_keeps_its_center_and_top(self):
        head = BBox(-4.0, 2.5, 8.0, 5.0)
        body = body_from_head(head)
        assert (body.x, body.y, body.w, body.h) == (-12.0, 2.5, 24.0, 30.0)
        assert body.center_x == head.center_x

    def test_degenerate_head_rejected(self):
        with pytest.raises(GeometryError):
            body_from_head(BBox(0.0, 0.0, 5.0, 0.0))
