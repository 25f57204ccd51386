"""Unit tests for the ZeroMQ-style pub/sub transport."""

import pytest

from repro.exceptions import ConfigurationError, TelemetryError
from repro.runtime.clock import SimClock
from repro.telemetry import MessageBus


@pytest.fixture()
def clock():
    return SimClock()


@pytest.fixture()
def bus(clock):
    return MessageBus(clock)


class TestBasics:
    def test_publish_and_receive(self, bus):
        sub = bus.sub_socket("progress")
        pub = bus.pub_socket()
        pub.send("progress/lammps", 42.0)
        msgs = sub.recv_all()
        assert len(msgs) == 1
        assert msgs[0].topic == "progress/lammps"
        assert msgs[0].value == 42.0
        assert msgs[0].time == 0.0

    def test_prefix_filtering(self, bus):
        sub = bus.sub_socket("progress/amg")
        pub = bus.pub_socket()
        pub.send("progress/lammps", 1.0)
        pub.send("progress/amg", 2.0)
        msgs = sub.recv_all()
        assert [m.value for m in msgs] == [2.0]

    def test_multiple_subscribers(self, bus):
        s1 = bus.sub_socket("progress")
        s2 = bus.sub_socket("progress")
        bus.pub_socket().send("progress", 1.0)
        assert len(s1.recv_all()) == 1
        assert len(s2.recv_all()) == 1

    def test_recv_drains_queue(self, bus):
        sub = bus.sub_socket("p")
        bus.pub_socket().send("p", 1.0)
        sub.recv_all()
        assert sub.recv_all() == []


class TestZmqSemantics:
    def test_slow_joiner_misses_earlier_messages(self, bus):
        pub = bus.pub_socket()
        pub.send("p", 1.0)
        sub = bus.sub_socket("p")
        pub.send("p", 2.0)
        assert [m.value for m in sub.recv_all()] == [2.0]

    def test_hwm_drops_overflow(self, bus):
        sub = bus.sub_socket("p", hwm=2)
        pub = bus.pub_socket()
        for i in range(5):
            pub.send("p", float(i))
        assert sub.overflowed == 3
        assert [m.value for m in sub.recv_all()] == [0.0, 1.0]

    def test_closed_sub_gets_nothing(self, bus):
        sub = bus.sub_socket("p")
        sub.close()
        bus.pub_socket().send("p", 1.0)
        with pytest.raises(TelemetryError):
            sub.recv_all()

    def test_closed_pub_cannot_send(self, bus):
        pub = bus.pub_socket()
        pub.close()
        with pytest.raises(TelemetryError):
            pub.send("p", 1.0)

    def test_hwm_must_be_positive(self, bus):
        with pytest.raises(ConfigurationError):
            bus.sub_socket("p", hwm=0)


class TestDelayAndLoss:
    """Message stamps and seeded loss; delivery itself is immediate."""

    def test_message_time_is_publish_time(self, clock):
        bus = MessageBus(clock)
        sub = bus.sub_socket("p")
        bus.pub_socket().send("p", 1.0)
        clock.advance(1.0)
        assert sub.recv_all()[0].time == 0.0

    def test_lossy_bus_drops_fraction(self, clock):
        bus = MessageBus(clock, drop_prob=0.3, seed=7)
        sub = bus.sub_socket("p", hwm=10_000)
        pub = bus.pub_socket()
        for _ in range(2000):
            pub.send("p", 1.0)
        received = len(sub.recv_all())
        assert bus.dropped == 2000 - received
        assert 0.6 < received / 2000 < 0.8

    def test_loss_is_deterministic_per_seed(self, clock):
        def run(seed):
            bus = MessageBus(SimClock(), drop_prob=0.5, seed=seed)
            sub = bus.sub_socket("p", hwm=10_000)
            pub = bus.pub_socket()
            for i in range(100):
                pub.send("p", float(i))
            return [m.value for m in sub.recv_all()]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_validation(self, clock):
        with pytest.raises(ConfigurationError):
            MessageBus(clock, drop_prob=1.0)
        with pytest.raises(ConfigurationError):
            MessageBus(clock, drop_prob=-0.1)


class TestResubscribe:
    """A subscriber comes back by opening a new socket on the bus: it is
    a new slow joiner, and the closed socket stays closed."""

    def test_messages_while_away_are_lost(self, bus):
        sub = bus.sub_socket("p")
        pub = bus.pub_socket()
        sub.close()
        pub.send("p", 1.0)  # published while disconnected
        sub = bus.sub_socket("p")
        pub.send("p", 2.0)
        assert [m.value for m in sub.recv_all()] == [2.0]

    def test_resubscribed_socket_is_live_again(self, bus):
        bus.sub_socket("progress").close()
        sub = bus.sub_socket("progress")
        bus.pub_socket().send("progress/lammps", 3.0)
        msgs = sub.recv_all()
        assert [m.topic for m in msgs] == ["progress/lammps"]

    def test_resubscribe_on_connected_socket_raises(self, bus):
        old = bus.sub_socket("p")
        old.close()
        new = bus.sub_socket("p")
        bus.pub_socket().send("p", 1.0)
        with pytest.raises(TelemetryError):
            old.recv_all()  # a new connection does not revive the old one
        assert [m.value for m in new.recv_all()] == [1.0]
        assert [s["topic"] for s in bus.snapshot()["subs"]] == ["p"]


class TestSnapshot:
    def test_queue_round_trips_as_time_message_pairs(self, clock):
        bus = MessageBus(clock)
        sub = bus.sub_socket("p")
        bus.pub_socket().send("p", 1.0)
        clock.advance(0.5)
        bus.pub_socket().send("p", 2.0)
        state = bus.snapshot()
        assert [(t, m.time, m.value) for t, m in state["subs"][0]["queue"]] \
            == [(0.0, 0.0, 1.0), (0.5, 0.5, 2.0)]

        twin = MessageBus(SimClock())
        twin_sub = twin.sub_socket("p")
        twin.restore(state)
        assert twin.snapshot() == state
        assert [m.value for m in twin_sub.recv_all()] == [1.0, 2.0]
