"""Tests for gateway admission control."""

import pytest

from repro.service.quota import (
    AdmissionController,
    AdmissionError,
    InstructionBudgetExhausted,
    MemoryCapExceeded,
    QueueFull,
    RateLimited,
    TenantQuota,
    UnknownTenant,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def controller(clock):
    return AdmissionController(clock=clock)


def test_unknown_tenant_rejected(controller):
    with pytest.raises(UnknownTenant) as exc:
        controller.admit("ghost")
    assert exc.value.code == "unknown-tenant"


def test_unlimited_quota_admits_everything(controller):
    controller.register("t", TenantQuota())
    for _ in range(100):
        controller.admit("t")


def test_queue_depth_enforced_and_released(controller):
    controller.register("t", TenantQuota(max_queue_depth=2))
    controller.admit("t")
    controller.admit("t")
    with pytest.raises(QueueFull) as exc:
        controller.admit("t")
    assert exc.value.retry_after_s is not None
    controller.settle("t")
    controller.admit("t")  # slot freed


def test_rate_limit_with_retry_after(controller, clock):
    controller.register("t", TenantQuota(requests_per_second=10.0, burst=1))
    controller.admit("t")
    with pytest.raises(RateLimited) as exc:
        controller.admit("t")
    assert exc.value.code == "rate-limited"
    assert exc.value.retry_after_s == pytest.approx(0.1, abs=0.05)
    clock.advance(0.15)
    controller.admit("t")  # bucket refilled


def test_rate_limit_burst(controller, clock):
    controller.register("t", TenantQuota(requests_per_second=1.0, burst=3))
    for _ in range(3):
        controller.admit("t")
    with pytest.raises(RateLimited):
        controller.admit("t")


def test_instruction_budget_exhausts_and_resets(controller):
    controller.register("t", TenantQuota(instruction_budget=1000))
    controller.admit("t")
    controller.settle("t", weighted_instructions=1500)
    with pytest.raises(InstructionBudgetExhausted) as exc:
        controller.admit("t")
    assert exc.value.code == "instruction-budget-exhausted"
    controller.reset_epoch()
    controller.admit("t")  # new epoch, fresh budget


def test_memory_cap(controller):
    controller.register("t", TenantQuota(memory_cap_bytes=65536))
    controller.admit("t", memory_required_bytes=65536)
    with pytest.raises(MemoryCapExceeded):
        controller.admit("t", memory_required_bytes=65537)


def test_rejections_counted_in_stats(controller):
    controller.register("t", TenantQuota(max_queue_depth=1))
    controller.admit("t")
    with pytest.raises(QueueFull):
        controller.admit("t")
    stats = controller.stats("t")
    assert stats["admitted"] == 1
    assert stats["rejected"] == 1
    assert stats["in_flight"] == 1


def test_typed_errors_serialise(controller):
    controller.register("t", TenantQuota(max_queue_depth=1))
    controller.admit("t")
    try:
        controller.admit("t")
    except AdmissionError as exc:
        data = exc.to_json()
    assert data["code"] == "queue-full"
    assert "retry_after_s" in data


def test_rate_limit_refills_from_clock_zero():
    """Regression: a first refill stamped at clock reading 0.0 is a real
    timestamp, not "never refilled" — the bucket must accrue tokens from it."""
    clock = FakeClock()
    clock.now = 0.0
    controller = AdmissionController(clock=clock)
    controller.register("t", TenantQuota(requests_per_second=10.0, burst=1))
    controller.admit("t")  # drains the one burst token at t=0.0
    clock.advance(0.15)  # 1.5 tokens accrued — unless 0.0 read as falsy
    controller.admit("t")


def test_rate_limited_at_clock_zero_reports_retry_after():
    clock = FakeClock()
    clock.now = 0.0
    controller = AdmissionController(clock=clock)
    controller.register("t", TenantQuota(requests_per_second=10.0, burst=1))
    controller.admit("t")
    with pytest.raises(RateLimited) as exc:
        controller.admit("t")
    assert exc.value.retry_after_s is not None and exc.value.retry_after_s > 0


def test_settle_and_stats_raise_typed_unknown_tenant(controller):
    """Regression: unknown tenants get the typed admission error, not a bare
    KeyError, on every controller entry point."""
    for call in (
        lambda: controller.settle("ghost"),
        lambda: controller.stats("ghost"),
        lambda: controller.quota("ghost"),
        lambda: controller.admit("ghost"),
    ):
        with pytest.raises(UnknownTenant) as exc:
            call()
        assert exc.value.code == "unknown-tenant"
        assert exc.value.to_json()["code"] == "unknown-tenant"


def test_settled_counter_matches_admitted(controller):
    controller.register("t", TenantQuota())
    for _ in range(5):
        controller.admit("t")
    for _ in range(3):
        controller.settle("t")
    stats = controller.stats("t")
    assert stats["admitted"] == 5
    assert stats["settled"] == 3
    assert stats["in_flight"] == 2
    assert stats["admitted"] - stats["in_flight"] == stats["settled"]


def test_evicted_tenant_cannot_dodge_its_instruction_budget(clock):
    """Idling until eviction must not reset a lazy tenant's epoch spend."""
    controller = AdmissionController(
        clock=clock,
        shards=1,
        default_quota=TenantQuota(instruction_budget=1_000),
        max_resident=1,
    )

    def evict_spender():
        controller.admit("other")  # over the cap: the idle spender goes
        controller.settle("other")

    controller.admit("spender")
    controller.settle("spender", weighted_instructions=1_000)
    with pytest.raises(InstructionBudgetExhausted):
        controller.admit("spender")
    evict_spender()
    assert controller.evictions == 1
    # the returning tenant is seeded with its evicted spend: still exhausted
    with pytest.raises(InstructionBudgetExhausted):
        controller.admit("spender")
    assert controller.stats("spender")["spent_instructions"] == 1_000
    # a second round trip adds nothing new, so the spend is not counted twice
    evict_spender()
    with pytest.raises(InstructionBudgetExhausted):
        controller.admit("spender")
    assert controller.stats("spender")["spent_instructions"] == 1_000
    # a new epoch forgets evicted spend along with resident spend
    evict_spender()
    controller.reset_epoch()
    controller.admit("spender")
    assert controller.stats("spender")["spent_instructions"] == 0


def test_evicted_spend_error_stays_a_fraction_of_the_budget(clock):
    """Thousands of evicted spenders must not lock out other tenants.

    3,000 tenants each spend 60% of the budget and are evicted, 1,800
    budgets' worth of spend in one shard: a single 1024-wide sketch would
    overestimate every key by about 1.8 budgets.
    """
    budget = 1_000
    controller = AdmissionController(
        clock=clock,
        shards=1,
        default_quota=TenantQuota(instruction_budget=budget),
        max_resident=1,
    )
    spenders = [f"spender-{i}" for i in range(3_000)]
    for tenant in spenders:
        controller.admit(tenant)
        controller.settle(tenant, weighted_instructions=600)
    assert controller.evictions == len(spenders) - 1
    for tenant in ("never-seen", spenders[0], spenders[1_500]):
        controller.admit(tenant)
        spent = controller.stats(tenant)["spent_instructions"]
        expected = 0 if tenant == "never-seen" else 600
        assert expected <= spent < expected + budget // 4
        controller.settle(tenant)
