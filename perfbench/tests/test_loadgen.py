import pytest

from loadgen import Feed, Schedule, Sink


class FakeClock:
    """Advances only when the test says so (plus 0.1 us per read, so the
    feeder's spin-wait terminates)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1e-7
        return self.t

    def advance(self, seconds):
        self.t += seconds


def test_due_times_follow_the_fixed_rate():
    schedule = Schedule(t0=100.0, period_s=0.01)
    assert schedule.due(0) == 100.0
    assert schedule.due(3) == pytest.approx(100.03)


def test_early_request_is_held_and_lateness_recorded():
    schedule = Schedule(t0=0.0, period_s=0.01)
    assert schedule.on_request(2, now=0.015) == pytest.approx(0.02)
    schedule.on_release(2, released=0.0203)
    assert schedule.late_s == [pytest.approx(0.0003)]
    assert schedule.backlog_max == 0


def test_late_request_is_released_at_once_and_backlog_counted():
    schedule = Schedule(t0=0.0, period_s=0.01)
    # at 0.045 ticks 0..4 are due; tick 1 goes out and 2, 3, 4 wait behind it
    assert schedule.on_request(1, now=0.045) is None
    assert schedule.backlog_max == 3
    assert schedule.late_s == []
    assert schedule.backlog(0, now=-1.0) == 0


def run_program(feed, clock, work):
    """Plays a program that spends work[k] seconds on scheduled tick k."""
    sink = Sink(clock)
    lines = iter(feed)
    assert next(lines) == "h"
    for _ in range(feed.prefill):
        next(lines)
    for k, line in enumerate(lines):
        clock.advance(work[k])
        sink.write(line)
    return sink


def test_open_loop_feed_times_ticks_from_due_time():
    clock = FakeClock()
    feed = Feed("h", [f"l{i}" for i in range(10)], 2, count=5,
                schedule_period_s=0.01, clock=clock, sleep=clock.advance)
    sink = run_program(feed, clock, work=[0.002, 0.002, 0.025, 0.002, 0.002])
    assert sink.lines == ["l2", "l3", "l4", "l5", "l6"]
    assert feed.fed == 7
    schedule = feed.schedule
    # ticks 1 and 2 were asked for early and held; 3 and 4 were already due
    assert feed.released == pytest.approx([0.0, 0.01, 0.02, 0.045, 0.047], abs=1e-4)
    assert schedule.late_s == pytest.approx([0.0, 0.0], abs=1e-4)
    assert schedule.backlog_max == 1  # at 0.045 tick 4 (due 0.04) waited behind 3
    latency = [t - schedule.due(k) for k, t in enumerate(sink.times)]
    assert latency == pytest.approx([0.002, 0.002, 0.025, 0.017, 0.009], abs=1e-4)


def test_closed_loop_feed_stops_after_its_time_slice():
    clock = FakeClock()
    feed = Feed("h", [f"l{i}" for i in range(100)], 1, seconds=0.35, clock=clock)
    sink = run_program(feed, clock, work=[0.1] * 100)
    # lines go out at 0.0, 0.1, 0.2, 0.3; at 0.4 the slice is over
    assert sink.lines == ["l1", "l2", "l3", "l4"]
    assert feed.fed == 5
    assert feed.released == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-4)
    latency = [t - r for t, r in zip(sink.times, feed.released)]
    assert latency == pytest.approx([0.1] * 4, abs=1e-4)
    assert feed.schedule is None
