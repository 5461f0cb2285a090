"""Tick feeders and the forecast sink that stand in for `stream`'s stdin/stdout.

`cmd_stream` iterates over `args.stdin` and writes to `args.stdout`, so the
benchmark passes a generator as stdin and records, at every write, when the
forecast line left the program. Two feeders:

- Replay (closed loop, one feeder): the next line is handed over as soon as
  the program asks for it, like `cat ticks.csv | gripforecast stream`.
- Live (open loop, 120 Hz): tick k of the scheduled part is due at
  t0 + k * period whatever the program is doing. A tick the program asks for
  early is held until it is due; one it asks for late is handed over at once
  and the wait counts against its latency, so a backlog shows.

Both first hand over the header and the ticks that fill the window without
any pacing; the measured part starts with the tick that fills the window.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

SPIN_S = 2e-3  # sleep() can overshoot by a millisecond or more; spin the rest


class Sink:
    """stdout stand-in: keeps each written line with the time it was written."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.lines: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> None:
        self.times.append(self.clock())
        self.lines.append(text)

    def flush(self) -> None:
        pass


class Schedule:
    """Open-loop due times and the lateness/backlog bookkeeping around them."""

    def __init__(self, t0: float, period_s: float):
        self.t0 = t0
        self.period_s = period_s
        self.late_s: list[float] = []  # release - due, for ticks asked for early
        self.backlog_max = 0

    def due(self, k: int) -> float:
        return self.t0 + k * self.period_s

    def backlog(self, k: int, now: float) -> int:
        """Ticks due by `now` that wait behind tick k, the one being handed over."""
        if now < self.t0:
            return 0
        due_count = int((now - self.t0) / self.period_s) + 1
        return max(due_count - k - 1, 0)

    def on_request(self, k: int, now: float) -> float | None:
        """Called when the program asks for tick k at `now`.

        Returns the time to hold the tick until, or None if it is already
        due (then the request is counted towards the backlog).
        """
        due = self.due(k)
        if now < due:
            return due
        self.backlog_max = max(self.backlog_max, self.backlog(k, now))
        return None

    def on_release(self, k: int, released: float) -> None:
        """Records how late a held tick was handed over."""
        self.late_s.append(released - self.due(k))


def wait_until(deadline: float, clock: Callable[[], float] = time.perf_counter,
               sleep: Callable[[float], None] = time.sleep) -> float:
    """Sleeps to within SPIN_S of `deadline`, then spins; returns the time."""
    remaining = deadline - clock()
    if remaining > SPIN_S:
        sleep(remaining - SPIN_S)
    now = clock()
    while now < deadline:
        now = clock()
    return now


class Feed:
    """Iterable stdin for one `cmd_stream` call.

    `header` and the first `prefill` lines go out at once. After that,
    closed-loop mode (schedule_period_s=None) hands lines over on demand
    until `seconds` have passed or the lines run out; open-loop mode hands
    over `count` lines on a fixed schedule starting at the first request.
    """

    def __init__(self, header: str, lines: list[str], prefill: int, *,
                 seconds: float | None = None, count: int | None = None,
                 schedule_period_s: float | None = None, tracer=None,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep):
        self.header = header
        self.lines = lines
        self.prefill = prefill
        self.seconds = seconds
        self.count = count
        self.schedule_period_s = schedule_period_s
        self.tracer = tracer
        self.clock = clock
        self.sleep = sleep
        self.first_read: float | None = None  # cmd_stream's first read of stdin
        self.start: float | None = None  # when the window-filling tick was asked for
        self.fed = 0  # tick lines handed over (header excluded)
        self.schedule: Schedule | None = None
        self.released: list[float] = []  # hand-over time of each tick after prefill

    def __iter__(self) -> Iterator[str]:
        self.first_read = self.clock()
        yield self.header
        for line in self.lines[: self.prefill]:
            self.fed += 1
            yield line
        self.start = self.clock()
        if self.schedule_period_s is None:
            deadline = self.start + self.seconds
            for line in self.lines[self.prefill:]:
                now = self.clock()
                if self.fed > self.prefill and now >= deadline:
                    return
                self.released.append(now)
                self.fed += 1
                self._request(self.fed - 1)
                yield line
            return
        self.schedule = Schedule(self.start, self.schedule_period_s)
        for k, line in enumerate(self.lines[self.prefill: self.prefill + self.count]):
            asked = released = self.clock()
            hold = self.schedule.on_request(k, asked)
            if hold is not None:
                released = wait_until(hold, self.clock, self.sleep)
                self.schedule.on_release(k, released)
                if self.tracer is not None:
                    self.tracer.record("loadgen.wait", asked, released)
            self.released.append(released)
            self.fed += 1
            self._request(self.fed - 1)
            yield line

    def _request(self, tick: int) -> None:
        if self.tracer is not None:
            self.tracer.request = str(tick)
