"""Tests for adaptive (d, w) control (Equations 8-9) and grid search."""

from __future__ import annotations

import pytest

from repro.core.adaptive import AdaptiveConfig, AdaptiveController, clip


class TestClip:
    def test_inside(self):
        assert clip(10, 1, 5) == 5

    def test_below(self):
        assert clip(10, 1, -3) == 1

    def test_above(self):
        assert clip(10, 1, 42) == 10

    def test_empty_range(self):
        with pytest.raises(ValueError):
            clip(1, 10, 5)


class TestConfig:
    def test_defaults_valid(self):
        AdaptiveConfig()

    def test_invalid_depth_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(d_min=5, d_max=2)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(w_max=0)


class TestController:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            AdaptiveController(0, 10)

    def test_equation8_formula(self):
        # d = clip(Dmax, Dmin, floor(B1/(n+c1)) - 1)
        ctl = AdaptiveController(120, 200, AdaptiveConfig(d_min=1, d_max=8, c1=1.0))
        assert ctl.depth(9) == 8  # floor(120/10)-1 = 11 -> clipped to 8
        assert ctl.depth(39) == 2  # floor(120/40)-1 = 2
        assert ctl.depth(119) == 1  # floor(120/120)-1 = 0 -> clipped to 1

    def test_equation9_formula(self):
        # w = clip(Wmax, 1, floor(B2/n) + c2)
        ctl = AdaptiveController(120, 200, AdaptiveConfig(w_max=4, c2=0))
        assert ctl.width(10) == 4  # 20 -> clipped
        assert ctl.width(100) == 2
        assert ctl.width(300) == 1  # 0 -> clipped up to 1

    def test_c2_shifts_width(self):
        base = AdaptiveController(120, 200, AdaptiveConfig(w_max=8, c2=0))
        shifted = AdaptiveController(120, 200, AdaptiveConfig(w_max=8, c2=2))
        assert shifted.width(100) == base.width(100) + 2

    def test_monotone_decreasing_in_load(self):
        ctl = AdaptiveController(120, 160)
        depths = [ctl.depth(n) for n in (1, 5, 20, 60, 120)]
        widths = [ctl.width(n) for n in (1, 5, 20, 60, 120)]
        assert depths == sorted(depths, reverse=True)
        assert widths == sorted(widths, reverse=True)

    def test_bounds_respected_everywhere(self):
        cfg = AdaptiveConfig(d_min=2, d_max=6, w_max=3)
        ctl = AdaptiveController(150, 150, cfg)
        for n in range(1, 400, 7):
            d, w = ctl.params(n)
            assert cfg.d_min <= d <= cfg.d_max
            assert 1 <= w <= cfg.w_max

    def test_invalid_n(self):
        ctl = AdaptiveController(100, 100)
        with pytest.raises(ValueError):
            ctl.depth(0)
        with pytest.raises(ValueError):
            ctl.width(0)
