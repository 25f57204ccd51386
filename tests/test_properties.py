"""Cross-cutting property-based tests on library invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.policies import ProgressAwareRebalancer
from repro.nrm.schemes import LinearDecreaseSchedule, StepSchedule
from repro.runtime.clock import SimClock
from repro.telemetry.pubsub import MessageBus


class TestPubSubConservation:
    @given(
        n_messages=st.integers(min_value=0, max_value=300),
        drop_prob=st.floats(min_value=0.0, max_value=0.9),
        hwm=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_message_accounted_for(self, n_messages, drop_prob, hwm,
                                         seed):
        """published == received + dropped-in-transit + overflowed, for a
        single all-matching subscriber."""
        bus = MessageBus(SimClock(), drop_prob=drop_prob, seed=seed)
        sub = bus.sub_socket("", hwm=hwm)
        pub = bus.pub_socket()
        for i in range(n_messages):
            pub.send(f"topic/{i % 3}", float(i))
        received = len(sub.recv_all())
        assert bus.published == n_messages
        assert received + bus.dropped + sub.overflowed == n_messages

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_delivery_preserves_order_and_values(self, values):
        bus = MessageBus(SimClock())
        sub = bus.sub_socket("p", hwm=10_000)
        pub = bus.pub_socket()
        for v in values:
            pub.send("p", v)
        received = [m.value for m in sub.recv_all()]
        assert received == [float(v) for v in values]


class TestScheduleProperties:
    @given(t=st.floats(min_value=0, max_value=1e4),
           dt=st.floats(min_value=0, max_value=100))
    def test_linear_decrease_is_monotone_nonincreasing(self, t, dt):
        s = LinearDecreaseSchedule(high=160.0, low=60.0, rate=1.7, start=3.0)

        def level(x):
            cap = s.cap_at(x)
            return float("inf") if cap is None else cap

        assert level(t + dt) <= level(t) + 1e-9

    @given(low=st.floats(min_value=10.0, max_value=100.0),
           t=st.floats(min_value=0.0, max_value=1e4))
    def test_step_schedule_only_emits_configured_levels(self, low, t):
        s = StepSchedule(low=low, high=None, high_duration=7.0,
                         low_duration=11.0)
        assert s.cap_at(t) in (None, low)


class TestRebalancerProperties:
    @given(
        rates=st.lists(st.floats(min_value=0.0, max_value=1e6),
                       min_size=1, max_size=12),
        gain=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_allocation_conserves_budget_within_bounds(self, rates, gain):
        n = len(rates)
        budget = n * 100.0
        policy = ProgressAwareRebalancer(budget, min_node=45.0,
                                         max_node=200.0, gain=gain)
        budgets = policy.allocate(rates)
        assert len(budgets) == n
        assert sum(budgets) == pytest.approx(budget, rel=1e-6)
        assert all(45.0 - 1e-6 <= b <= 200.0 + 1e-6 for b in budgets)

    @given(
        rates=st.lists(st.floats(min_value=1.0, max_value=100.0),
                       min_size=2, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_slower_nodes_never_get_less(self, rates):
        """Budgets are anti-monotone in rate (ties allowed)."""
        policy = ProgressAwareRebalancer(len(rates) * 100.0, gain=1.0)
        budgets = policy.allocate(rates)
        order = np.argsort(rates)
        sorted_budgets = [budgets[i] for i in order]
        for a, b in zip(sorted_budgets, sorted_budgets[1:]):
            assert b <= a + 1e-6

    @given(
        rates=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=10),
        frac=st.floats(min_value=0.0, max_value=1.0),
        gain=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_feasible_budget_is_exactly_spent(self, rates, frac, gain):
        """For every budget in the feasible band [n*min, n*max] the
        projection lands exactly on it, with every node clamped in-bounds
        — including at both band edges where all nodes pin."""
        n = len(rates)
        lo, hi = 45.0, 200.0
        budget = n * lo + frac * n * (hi - lo)
        policy = ProgressAwareRebalancer(budget, min_node=lo, max_node=hi,
                                         gain=gain)
        budgets = policy.allocate(rates)
        assert sum(budgets) == pytest.approx(budget, rel=1e-6, abs=1e-6)
        assert all(lo - 1e-6 <= b <= hi + 1e-6 for b in budgets)

    @given(rate=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           budget=st.floats(min_value=45.0, max_value=200.0))
    @settings(max_examples=40, deadline=None)
    def test_single_node_gets_the_whole_budget(self, rate, budget):
        policy = ProgressAwareRebalancer(budget, min_node=45.0,
                                         max_node=200.0)
        assert policy.allocate([rate]) == pytest.approx([budget])
