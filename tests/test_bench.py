"""The benchmark harness: series generation and shape checking."""

import pytest

from repro.bench import (
    FIGURES,
    check_figure_shape,
    format_figure,
    growth_exponent,
    run_figure,
)
from repro.bench.runner import FigureRow


class TestGrowthExponent:
    def test_linear(self):
        xs = [1, 2, 4, 8]
        assert growth_exponent(xs, [3 * x for x in xs]) == pytest.approx(1.0)

    def test_cubic(self):
        xs = [1, 2, 4, 8]
        assert growth_exponent(xs, [x**3 for x in xs]) == pytest.approx(3.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            growth_exponent([1], [1])


def mk_row(scale, eff, sec_s, sec_mb, gc_s, gc_mb, ok=True):
    return FigureRow(
        query="Q3",
        scale_mb=scale,
        effective_mb=eff,
        secure_seconds=sec_s,
        secure_mb=sec_mb,
        plain_seconds=sec_s / 100,
        plain_mb=eff,
        gc_seconds=gc_s,
        gc_mb=gc_mb,
        matches_plaintext=ok,
    )


class TestShapeCheck:
    def test_good_shape_passes(self):
        rows = [
            mk_row(1, 0.1, 1, 80, 1e7, 1e6),
            mk_row(3, 0.3, 3, 240, 27e7, 27e6),
            mk_row(10, 1.0, 10, 800, 1e10, 1e9),
        ]
        assert check_figure_shape(rows) == []

    def test_flags_superlinear_secure_cost(self):
        rows = [
            mk_row(1, 0.1, 1, 10, 1e7, 1e6),
            mk_row(3, 0.3, 9, 90, 27e7, 27e6),
            mk_row(10, 1.0, 100, 1000, 1e10, 1e9),
        ]
        assert any("exponent" in p for p in check_figure_shape(rows))

    def test_flags_result_mismatch(self):
        rows = [mk_row(1, 0.1, 1, 80, 1e7, 1e6, ok=False)]
        assert any("match" in p for p in check_figure_shape(rows))

    def test_flags_gc_winning(self):
        rows = [mk_row(1, 0.1, 1, 80, 0.1, 1)]
        problems = check_figure_shape(rows)
        assert len(problems) >= 2


class TestRunner:
    def test_unknown_query(self):
        with pytest.raises(KeyError):
            run_figure("Q99")

    @pytest.mark.parametrize("query", list(FIGURES))
    def test_one_scale(self, query):
        """Every figure's claim at its smallest point: secure == plain,
        and the garbled-circuit baseline loses by orders of magnitude
        in both dimensions (Q9 on one nation; the rest are identical by
        obliviousness)."""
        rows = run_figure(query, scales=[0.1], q9_nations=[0])
        assert check_figure_shape(rows) == []
        (r,) = rows
        assert r.gc_mb > 100 * r.secure_mb
        assert r.gc_seconds > 100 * r.secure_seconds

    def test_format_contains_figure_number(self):
        rows = run_figure("Q10", scales=[1])
        text = format_figure(rows)
        assert f"Figure {FIGURES['Q10']}" in text
        assert "yes" in text


class TestHumanFormatting:
    def test_time_units(self):
        from repro.bench.runner import _human_time

        assert _human_time(5) == "5.00s"
        assert _human_time(300) == "5.0min"
        assert _human_time(7200) == "2.0h"
        assert _human_time(86400 * 4) == "4.0d"
        assert _human_time(86400 * 365.25 * 2) == "2.0y"

    def test_size_units(self):
        from repro.bench.runner import _human_mb

        assert _human_mb(0.5) == "500KB"
        assert _human_mb(12) == "12.0MB"
        assert _human_mb(2_000) == "2.0GB"
        assert _human_mb(3e6) == "3.0TB"
        assert _human_mb(4e9) == "4.0PB"
        assert _human_mb(5e12) == "5.0EB"
