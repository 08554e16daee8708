"""Work-item statistics: each item is timed by its median over the
passes, scaled per pass, and the tail is the highest percentile with
at least ten items beyond it."""

from __future__ import annotations

from e2ebench.run import Pass, item_stats


def _pass(item_seconds, scale=1.0):
    return Pass(wall=sum(item_seconds), item_seconds=list(item_seconds),
                result=None, scale=scale)


def test_each_item_is_timed_by_its_median_scaled_pass():
    items = [float(i) for i in range(1, 61)]
    passes = [_pass(items), _pass([2 * t for t in items], scale=0.5),
              _pass([10 * t for t in items])]
    count, p50, tail, percentile = item_stats(passes)
    assert count == 60
    assert p50 == 30.5
    # Items 51..60 lie beyond the tail: exactly ten.
    assert tail == 50.0
    assert percentile == 100.0 * 50 / 60


def test_tail_is_the_slowest_item_below_eleven():
    count, _p50, tail, percentile = item_stats([_pass([3.0, 1.0, 2.0])])
    assert (count, tail, percentile) == (3, 3.0, 100.0)
