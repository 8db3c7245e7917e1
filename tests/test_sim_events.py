"""The shared event core: keyed timers, cursors and the phase driver."""

from hypothesis import given, settings, strategies as st

from repro.sim.events import Cursor, Phase, Timers, drive

KEYS = st.sampled_from(["a", "b", "c", "d"])
#: Few distinct instants, so same-instant ties are common.
TIMES = st.integers(0, 6).map(float)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), KEYS, TIMES),
        st.tuples(st.just("cancel"), KEYS),
        st.tuples(st.just("pop"), TIMES),
        st.tuples(st.just("peek")),
    ),
    max_size=60,
)


@given(OPS)
@settings(max_examples=200, deadline=None)
def test_timers_match_a_dict_reference(ops):
    """Schedule / reschedule / cancel / pop-due against dict + min():
    pop order is (due, key), so same-instant ties break by key."""
    timers = Timers()
    reference = {}
    for op in ops:
        if op[0] == "schedule":
            _, key, at = op
            timers.schedule(key, at)
            reference[key] = at
        elif op[0] == "cancel":
            timers.cancel(op[1])
            reference.pop(op[1], None)
        elif op[0] == "pop":
            now = op[1]
            want = sorted((at, key) for key, at in reference.items() if at <= now)
            assert list(timers.pop_due(now)) == [key for _, key in want]
            for _, key in want:
                del reference[key]
        else:
            assert timers.peek() == (min(reference.values()) if reference else None)
        assert len(timers) == len(reference)
        assert dict(timers.items()) == reference
        for key in "abcd":
            assert (key in timers) == (key in reference)
            assert timers.get(key) == reference.get(key)


def test_pop_due_sees_changes_made_mid_pass():
    timers = Timers()
    for key in "abc":
        timers.schedule(key, 1.0)
    seen = []
    for key in timers.pop_due(1.0):
        seen.append(key)
        if key == "a":
            timers.cancel("b")  # cancelled before its turn: skipped
            timers.schedule("d", 0.5)  # already due: popped this pass
    assert seen == ["a", "d", "c"]
    assert len(timers) == 0 and timers.peek() is None


def test_cursor_hands_over_due_items_in_order():
    handled = []
    cursor = Cursor([(1.0, "x"), (2.0, "y"), (2.0, "z")], lambda e: e[0], handled.append)
    assert cursor and cursor.next_at() == 1.0
    cursor.fire(0.5)
    assert handled == []
    cursor.fire(2.0)
    assert [e[1] for e in handled] == ["x", "y", "z"]
    assert not cursor and cursor.next_at() is None


class _Scraper:
    def __init__(self, interval_us, log):
        self.scrape_interval_us = interval_us
        self.log = log

    def scrape(self, t_us):
        self.log.append(("scrape", t_us))


@given(
    st.lists(st.integers(0, 200).map(float), max_size=20),
    st.integers(1, 50).map(float),
    st.integers(0, 20).map(float),
)
@settings(max_examples=200, deadline=None)
def test_scrape_subdivides_waits_and_never_extends_the_run(times, interval, start):
    log = []
    due = sorted(times)
    events = Cursor(due, lambda t: t, lambda t: log.append(("event", t)))
    makespan = drive([events], _Scraper(interval, log), start)
    assert makespan == max([start] + due)
    assert [t for kind, t in log if kind == "event"] == due
    # Events fire at their own instant (or at the start: the clock never
    # runs backwards); a scrape fires after the events of its instant.
    def order(entry):
        kind, t = entry
        return (max(start, t), kind == "scrape")

    assert log == sorted(log, key=order)
    # Scrapes land on the interval grid, in order, never after the makespan,
    # and every grid point up to the last event is scraped.
    scrapes = [t for kind, t in log if kind == "scrape"]
    grid = []
    t = start + interval
    while due and t <= makespan:
        grid.append(t)
        t += interval
    assert scrapes == grid


def test_phases_fire_in_declared_order_then_scrape():
    log = []

    def phase(name, times):
        pending = sorted(times)

        def next_at():
            return pending[0] if pending else None

        def fire(now):
            while pending and pending[0] <= now:
                pending.pop(0)
            log.append((name, now))

        return Phase(next_at, fire)

    phases = [
        phase("recover", [5.0]),
        phase("arrive", [5.0, 10.0]),
        Phase(None, lambda now: log.append(("flush", now))),
    ]
    assert drive(phases, _Scraper(10.0, log), 0.0) == 10.0
    assert log == [
        ("recover", 5.0), ("arrive", 5.0), ("flush", 5.0),
        ("recover", 10.0), ("arrive", 10.0), ("flush", 10.0), ("scrape", 10.0),
    ]


def test_no_events_means_no_instant_and_no_scrape():
    log = []
    assert drive([Phase(None, lambda now: log.append(now))], _Scraper(1.0, log), 3.0) == 3.0
    assert log == []
