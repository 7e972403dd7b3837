"""repro.repod: the overload-tolerant repository service.

The contract under test is robustness with receipts: the origin sheds
instead of melting, proxies coalesce and degrade to stale instead of
failing, clients retry under a budget instead of storming, every request
reaches a terminal state exactly once, and — same seed — the whole storm
replays byte-identically."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, RepodError, RetryExhaustedError
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryBudget,
    RetryPolicy,
    call_with_retry,
)
from repro.repod import (
    RepoClient,
    RepoServer,
    SiteProxy,
    UpdateStormScenario,
    payload_for,
    repod_confluence_problems,
)
from repro.rpm.package import Package
from repro.sim import SimKernel
from repro.yum.mirror import MirrorLink, RepoMirror
from repro.yum.repository import Repository

from .oracles import retry_budget

KB = 1024


def make_origin(kernel, *, slots=2, queue_limit=2, names=("alpha", "beta")):
    origin = RepoServer(
        "origin", kernel=kernel,
        link=MirrorLink(bandwidth_bytes_s=1024 * KB, latency_s=0.01),
        slots=slots, queue_limit=queue_limit,
    )
    origin.publish(
        [Package(name, "1.0", size_bytes=512 * KB) for name in names]
    )
    return origin


def drain(kernel, limit=100_000):
    fired = 0
    while kernel.step():
        fired += 1
        assert fired < limit, "kernel never quiesced"


# --- RepoServer: admission control ------------------------------------------------


class TestRepoServer:
    def test_validates_configuration(self):
        kernel = SimKernel(seed=0)
        link = MirrorLink(bandwidth_bytes_s=KB)
        with pytest.raises(RepodError, match="slot"):
            RepoServer("o", kernel=kernel, link=link, slots=0)
        with pytest.raises(RepodError, match="queue"):
            RepoServer("o", kernel=kernel, link=link, queue_limit=-1)

    def test_publish_newest_evr_wins_and_bumps_serial(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        assert origin.serial == 1
        serial = origin.publish(
            [
                Package("alpha", "1.0", size_bytes=KB),
                Package("alpha", "2.0", size_bytes=KB),
            ]
        )
        assert serial == 2
        results = []
        origin.request("alpha", requester="t", on_result=results.append)
        drain(kernel)
        assert results[0].ok and "alpha-2.0" in results[0].payload

    def test_slots_queue_and_shedding(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel, slots=2, queue_limit=2)
        results = []
        for _ in range(5):
            origin.request("alpha", requester="t", on_result=results.append)
        # 2 in service, 2 queued, the 5th shed synchronously at the door
        assert [r.error_kind for r in results] == ["shed"]
        assert len(origin._active) == 2 and len(origin._queue) == 2
        drain(kernel)
        assert origin.served == 4 and origin.shed_full == 1
        assert sum(1 for r in results if r.ok) == 4
        assert kernel.trace.count("repod.shed") == 1
        assert origin.problems() == []

    def test_deadline_expired_requests_are_shed_not_served(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel, slots=1, queue_limit=4)
        kernel.run_until(100.0)
        results = []
        # dead on arrival: deadline in the past
        origin.request(
            "alpha", requester="t", deadline_s=99.0, on_result=results.append
        )
        assert results[0].error_kind == "shed"
        assert origin.shed_deadline == 1
        # expires while queued: the slot is busy past this waiter's deadline
        origin.request("alpha", requester="t", on_result=results.append)
        origin.request(
            "beta", requester="t", deadline_s=100.1, on_result=results.append
        )
        drain(kernel)
        assert origin.shed_deadline == 2
        beta = [r for r in results if r.artifact == "beta"][0]
        assert not beta.ok and beta.error_kind == "shed"
        assert origin.problems() == []

    def test_missing_artifact_and_refusal_when_down(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        results = []
        origin.request("gamma", requester="t", on_result=results.append)
        assert results[-1].error_kind == "missing"
        origin.crash()
        origin.request("alpha", requester="t", on_result=results.append)
        assert results[-1].error_kind == "refused"
        assert origin.missing == 1 and origin.refused == 1
        assert origin.problems() == []

    def test_crash_fails_active_and_queued_then_recovers(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel, slots=1, queue_limit=2)
        results = []
        for _ in range(3):
            origin.request("alpha", requester="t", on_result=results.append)
        origin.crash()
        assert [r.error_kind for r in results] == ["crash"] * 3
        assert origin.crashed_inflight == 3
        drain(kernel)  # the cancelled transfer event must not fire
        assert origin.served == 0
        origin.recover()
        origin.request("alpha", requester="t", on_result=results.append)
        drain(kernel)
        assert results[-1].ok
        assert origin.problems() == []


# --- SiteProxy: hits, coalescing, serve-stale -------------------------------------


class TestSiteProxy:
    def test_miss_fills_cache_then_hits(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        proxy = SiteProxy("px", origin, kernel=kernel)
        first = proxy.fetch_blocking("alpha")
        assert first.ok and first.source == "px-miss"
        second = proxy.fetch_blocking("alpha")
        assert second.ok and second.source == "px-hit"
        assert second.payload == first.payload
        assert (proxy.hits, proxy.misses) == (1, 1)
        assert origin.arrivals == 1
        assert proxy.problems() == []

    def test_concurrent_misses_coalesce_into_one_origin_fetch(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        proxy = SiteProxy("px", origin, kernel=kernel)
        results = []
        for i in range(4):
            proxy.request("alpha", requester=f"c{i}", on_result=results.append)
        drain(kernel)
        assert origin.arrivals == 1
        assert len(results) == 4 and all(r.ok for r in results)
        assert len({r.payload for r in results}) == 1
        assert proxy.coalesced == 3
        assert kernel.trace.count("repod.coalesce") == 3
        assert proxy.problems() == []

    def test_notice_release_invalidates_without_mutation(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        proxy = SiteProxy("px", origin, kernel=kernel)
        proxy.fetch_blocking("alpha")
        serial = origin.publish([Package("alpha", "2.0", size_bytes=KB)])
        proxy.notice_release(serial)
        fresh = proxy.fetch_blocking("alpha")
        assert fresh.source == "px-miss" and "alpha-2.0" in fresh.payload
        with pytest.raises(RepodError, match="backwards"):
            proxy.notice_release(serial - 1)

    def test_serves_stale_while_origin_is_down(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        proxy = SiteProxy("px", origin, kernel=kernel)
        v1 = proxy.fetch_blocking("alpha")
        serial = origin.publish([Package("alpha", "2.0", size_bytes=KB)])
        proxy.notice_release(serial)
        origin.crash()
        stale = proxy.fetch_blocking("alpha")
        assert stale.ok and stale.source == "px-stale"
        assert stale.payload == v1.payload and stale.serial < serial
        assert proxy.stale_served == 1
        assert kernel.trace.count("repod.stale") == 1
        # no prior copy -> the failure propagates
        miss = proxy.fetch_blocking("beta")
        assert not miss.ok and miss.error_kind == "refused"
        assert proxy.problems() == []

    def test_uplink_reset_fails_fetch_but_stale_still_serves(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        proxy = SiteProxy("px", origin, kernel=kernel)
        proxy.fetch_blocking("alpha")
        serial = origin.publish([Package("alpha", "2.0", size_bytes=KB)])
        proxy.notice_release(serial)
        proxy.set_uplink_loss(1.0)
        result = proxy.fetch_blocking("alpha")
        assert result.ok and result.source == "px-stale"
        assert proxy.uplink_resets == 1
        fail = proxy.fetch_blocking("beta")
        assert not fail.ok and fail.error_kind == "reset"
        with pytest.raises(RepodError, match=r"\[0, 1\]"):
            proxy.set_uplink_loss(1.5)


# --- RepoClient: budgeted retries -------------------------------------------------


def make_tier(kernel, **origin_kwargs):
    origin = make_origin(kernel, **origin_kwargs)
    proxy = SiteProxy("px", origin, kernel=kernel)
    return origin, proxy


class TestRepoClient:
    def test_sync_walks_artifacts_with_one_terminal_each(self):
        kernel = SimKernel(seed=0)
        origin, proxy = make_tier(kernel)
        client = RepoClient(
            "c0", proxy, kernel=kernel,
            policy=RetryPolicy(max_attempts=3, jitter=0.0),
        )
        client.sync(["alpha", "beta"], at_s=1.0)
        drain(kernel)
        assert client.done
        assert client.outcomes() == {"alpha": "ok", "beta": "ok"}
        assert kernel.trace.count("repod.request") == 2
        assert client.problems() == []

    def test_retries_through_an_origin_outage(self):
        kernel = SimKernel(seed=0)
        origin, proxy = make_tier(kernel)
        origin.crash()
        kernel.at(30.0, origin.recover, label="heal")
        client = RepoClient(
            "c0", proxy, kernel=kernel,
            policy=RetryPolicy(max_attempts=6, base_delay_s=10.0, jitter=0.0),
        )
        client.sync(["alpha"], at_s=0.0)
        drain(kernel)
        assert client.outcomes() == {"alpha": "ok"}
        assert client.records["alpha"].attempts > 1
        assert kernel.trace.count("fault.retry") >= 1

    def test_budget_denial_is_a_terminal_failure(self):
        kernel = SimKernel(seed=0)
        origin, proxy = make_tier(kernel)
        origin.crash()  # never recovers
        budget = RetryBudget(capacity=1.0, refill_per_s=0.0, kernel=kernel)
        client = RepoClient(
            "c0", proxy, kernel=kernel,
            policy=RetryPolicy(max_attempts=10, base_delay_s=5.0, jitter=0.0),
            budget=budget,
        )
        client.sync(["alpha"], at_s=0.0)
        drain(kernel)
        assert client.outcomes() == {"alpha": "failed"}
        # attempt 1 free, retry 2 paid for, retry 3 denied -> terminal
        assert client.records["alpha"].attempts == 2
        assert budget.granted == 1 and budget.denied == 1
        # the grant rides on its retry; the denial is its own record
        retries = [e for e in kernel.trace.events if e.kind == "fault.retry"]
        assert [(e.data["op"], e.data["budget"], e.data["tokens"]) for e in retries] == [
            ("c0:alpha", "retry-budget", 0.0)
        ]
        events = [e for e in kernel.trace.events if e.kind == "repod.retry_budget"]
        assert [(e.data["op"], e.data["allowed"]) for e in events] == [("c0:alpha", False)]

    def test_patience_bounds_the_retry_ladder(self):
        kernel = SimKernel(seed=0)
        origin, proxy = make_tier(kernel)
        origin.crash()
        client = RepoClient(
            "c0", proxy, kernel=kernel,
            policy=RetryPolicy(
                max_attempts=100, base_delay_s=40.0, jitter=0.0, deadline_s=60.0
            ),
        )
        client.sync(["alpha"], at_s=0.0)
        drain(kernel)
        assert client.outcomes() == {"alpha": "failed"}
        assert kernel.now_s <= 61.0


# --- fault kinds: origin.crash + conn.reset (satellite 1) -------------------------


class TestRepodFaultKinds:
    def test_origin_crash_injects_and_recovers_with_trace(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        injector = FaultInjector(kernel, origins=[origin])
        plan = FaultPlan(
            "t",
            (
                FaultSpec(
                    FaultKind.ORIGIN_CRASH, "origin", at_s=10.0, duration_s=5.0
                ),
            ),
        )
        injector.apply(plan)
        kernel.run_until(12.0)
        assert not origin.up
        kernel.run_until(16.0)
        assert origin.up
        assert kernel.trace.count("fault.inject") == 1
        assert kernel.trace.count("fault.recover") == 1

    def test_conn_reset_sets_and_clears_uplink_loss(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        proxy = SiteProxy("px", origin, kernel=kernel)
        injector = FaultInjector(kernel, proxies=[proxy])
        plan = FaultPlan(
            "t",
            (
                FaultSpec(
                    FaultKind.CONN_RESET, "px", at_s=5.0, duration_s=5.0,
                    params={"loss_prob": 0.7},
                ),
            ),
        )
        injector.apply(plan)
        kernel.run_until(6.0)
        assert proxy._uplink_loss == 0.7
        kernel.run_until(11.0)
        assert proxy._uplink_loss == 0.0

    def test_unknown_targets_fail_loudly_with_wired_names(self):
        kernel = SimKernel(seed=0)
        origin = make_origin(kernel)
        injector = FaultInjector(kernel, origins=[origin], proxies=[])
        injector.apply(
            FaultPlan(
                "t", (FaultSpec(FaultKind.ORIGIN_CRASH, "nope", at_s=1.0),)
            )
        )
        with pytest.raises(FaultError, match="unknown origin 'nope'.*origin"):
            kernel.run_until(2.0)
        kernel2 = SimKernel(seed=0)
        injector2 = FaultInjector(kernel2)
        injector2.apply(
            FaultPlan("t", (FaultSpec(FaultKind.CONN_RESET, "px", at_s=1.0),))
        )
        with pytest.raises(FaultError, match="unknown proxy 'px'.*none"):
            kernel2.run_until(2.0)

    def test_conn_reset_loss_prob_is_validated_in_the_plan(self):
        spec = FaultSpec(
            FaultKind.CONN_RESET, "px", at_s=1.0, params={"loss_prob": 1.5}
        )
        assert any("loss_prob" in p for p in spec.problems())


# --- the deadline in call_with_retry ---------------------------------------------


class TestDeadlineClamp:
    def test_backoff_never_oversleeps_the_deadline(self):
        kernel = SimKernel(seed=0)
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=5.0, multiplier=3.0, jitter=0.0,
            deadline_s=8.0,
        )

        def always_fails():
            raise RepodError("nope")

        with pytest.raises(RetryExhaustedError, match="deadline"):
            call_with_retry(
                kernel, always_fails, policy=policy, op="t",
                retry_on=(RepodError,),
            )
        # attempt 1 at t=0 (sleep 5), attempt 2 at t=5: a 15 s delay would
        # land at t=20, past the t=8 deadline -> give up at once, at t=5.
        assert kernel.now_s == pytest.approx(5.0)
        giveup = [e for e in kernel.trace.events if e.kind == "fault.giveup"]
        assert [(e.t_s, e.data) for e in giveup] == [
            (5.0, {"op": "t", "attempts": 2})
        ]

    @given(
        base=st.floats(min_value=0.1, max_value=50.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        deadline=st.floats(min_value=0.5, max_value=200.0),
        attempts=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_giveup_never_lands_past_the_deadline(
        self, base, multiplier, deadline, attempts
    ):
        kernel = SimKernel(seed=1)
        policy = RetryPolicy(
            max_attempts=attempts, base_delay_s=base, multiplier=multiplier,
            jitter=0.0, deadline_s=deadline,
        )

        def always_fails():
            raise RepodError("nope")

        with pytest.raises(RetryExhaustedError):
            call_with_retry(
                kernel, always_fails, policy=policy, op="t",
                retry_on=(RepodError,),
            )
        assert kernel.now_s <= deadline + 1e-9


# --- RetryBudget ------------------------------------------------------------------


class TestRetryBudget:
    def test_refill_is_lazy_and_capped(self):
        budget = RetryBudget(capacity=2.0, refill_per_s=1.0)
        assert budget.try_spend(0.0) and budget.try_spend(0.0)
        assert not budget.try_spend(0.0)
        assert budget.try_spend(1.5)          # refilled 1.5 tokens
        assert budget.tokens(1000.0) == pytest.approx(2.0)  # capped
        assert (budget.granted, budget.denied) == (3, 1)

    def test_validation(self):
        with pytest.raises(FaultError, match="capacity"):
            RetryBudget(capacity=0.0)
        with pytest.raises(FaultError, match="refill"):
            RetryBudget(refill_per_s=-1.0)

    def test_decisions_are_traced_when_a_kernel_is_wired(self):
        kernel = SimKernel(seed=0)
        budget = RetryBudget(capacity=1.0, refill_per_s=0.0, kernel=kernel)
        assert budget.try_spend(0.0, op="x")
        assert not budget.try_spend(0.0, op="x")
        # a grant is recorded by the retry it pays for; a denial here
        events = [e for e in kernel.trace.events if e.kind == "repod.retry_budget"]
        assert [e.data for e in events] == [
            {"owner": "retry-budget", "op": "x", "allowed": False, "tokens": 0.0}
        ]
        assert len(kernel.trace) == 1


# --- the update storm -------------------------------------------------------------


class TestUpdateStorm:
    def test_governed_storm_meets_the_goodput_floor(self):
        report = UpdateStormScenario(seed=2015, governed=True).run()
        assert report.problems == []
        assert report.goodput_ratio >= 0.9
        assert report.failed == 0
        assert report.stale > 0                # serve-stale carried the outage
        assert report.origin_shed_full >= 1    # admission control engaged
        assert report.proxy_coalesced >= 1     # coalescing engaged
        assert report.budget_granted > 0       # retries were paid for

    def test_same_seed_is_byte_identical_different_seed_is_not(self):
        def jsonl(seed):
            scenario = UpdateStormScenario(
                seed=seed, campuses=3, clients_per_campus=3
            )
            scenario.run()
            return scenario.kernel.trace.to_jsonl()

        assert jsonl(7) == jsonl(7)
        assert jsonl(7) != jsonl(8)

    def test_naive_ablation_shows_the_retry_storm(self):
        governed = UpdateStormScenario(seed=2015, governed=True).run()
        naive = UpdateStormScenario(seed=2015, governed=False).run()
        # no budget + impatient backoff: the origin sees the herd
        assert naive.origin_arrivals >= 2 * governed.origin_arrivals
        assert naive.retries >= 3 * governed.retries
        assert naive.budget_granted == naive.budget_denied == 0

    def test_audit_catches_duplicate_terminals_and_goodput_breach(self):
        events = [
            {"kind": "repod.request",
             "data": {"req": "c0:a", "outcome": "ok"}},
            {"kind": "repod.request",
             "data": {"req": "c0:a", "outcome": "failed"}},
        ]
        problems = repod_confluence_problems(events)
        assert any("terminal state 2 times" in p for p in problems)
        starved = [
            {"kind": "repod.request",
             "data": {"req": f"c{i}:a", "outcome": "failed"}}
            for i in range(10)
        ]
        problems = repod_confluence_problems(
            starved, offered=10, goodput_floor=0.9
        )
        assert any("below the 90% floor" in p for p in problems)
        assert repod_confluence_problems([]) == []  # vacuous without repod

    def test_campus_bounds_are_validated(self):
        with pytest.raises(RepodError, match="campuses"):
            UpdateStormScenario(campuses=0)
        with pytest.raises(RepodError, match="client"):
            UpdateStormScenario(clients_per_campus=0)


# --- hypothesis properties (satellite 3) ------------------------------------------


ARTIFACTS = ("alpha", "beta", "gamma")


class TestProxyByteIdentityProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fetch", "publish", "crash", "recover"]),
                st.sampled_from(ARTIFACTS),
            ),
            min_size=1, max_size=30,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_proxy_responses_match_the_origin_bytes(self, ops, seed):
        """Whatever the hit/miss/stale interleaving, a successful proxy
        response carries exactly the bytes the origin published at the
        serial the response claims — the cache never invents or mixes
        content."""
        kernel = SimKernel(seed=seed)
        origin = RepoServer(
            "origin", kernel=kernel,
            link=MirrorLink(bandwidth_bytes_s=1024 * KB, latency_s=0.01),
            slots=2, queue_limit=2,
        )
        version = dict.fromkeys(ARTIFACTS, 1)
        origin.publish(
            [Package(a, "1", size_bytes=64 * KB) for a in ARTIFACTS]
        )
        # payloads by (serial, artifact), as published
        ledger = {
            (origin.serial, a): payload_for(origin._content[a])
            for a in ARTIFACTS
        }
        proxy = SiteProxy("px", origin, kernel=kernel)
        for action, artifact in ops:
            if action == "publish":
                version[artifact] += 1
                serial = origin.publish(
                    [Package(artifact, str(version[artifact]),
                             size_bytes=64 * KB)]
                )
                for name in ARTIFACTS:
                    ledger[(serial, name)] = payload_for(
                        origin._content[name]
                    )
                proxy.notice_release(serial)
            elif action == "crash":
                origin.crash()
            elif action == "recover":
                origin.recover()
            else:
                result = proxy.fetch_blocking(artifact)
                if result.ok:
                    assert result.payload == ledger[(result.serial, artifact)]
                    if not result.source.endswith("-stale"):
                        assert result.serial == origin.serial
        drain(kernel)
        assert proxy.problems() == []
        assert origin.problems() == []

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(ARTIFACTS),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_coalesced_fanout_equals_direct_origin_fetch(self, ops):
        """N concurrent waiters for one artifact all receive the identical
        payload a direct origin fetch would have produced, at the cost of
        at most one origin arrival per cache fill."""
        kernel = SimKernel(seed=3)
        origin = make_origin(kernel, names=ARTIFACTS)
        direct = {a: payload_for(origin._content[a]) for a in ARTIFACTS}
        proxy = SiteProxy("px", origin, kernel=kernel)
        results = []
        for artifact, fanout in ops:
            for i in range(fanout):
                proxy.request(
                    artifact, requester=f"c{i}",
                    on_result=lambda r: results.append(r),
                )
        drain(kernel)
        assert len(results) == sum(f for _, f in ops)
        for result in results:
            assert result.ok
            assert result.payload == direct[result.artifact]
        assert origin.arrivals <= len(ARTIFACTS)
        assert proxy.problems() == []


class TestRetryBudgetProperty:
    @given(
        capacity=st.floats(min_value=1.0, max_value=8.0),
        refill=st.floats(min_value=0.0, max_value=0.2),
        crash_at=st.floats(min_value=0.0, max_value=60.0),
        crash_for=st.floats(min_value=10.0, max_value=400.0),
        clients=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_is_never_exceeded_under_adversarial_outages(
        self, capacity, refill, crash_at, crash_for, clients, seed
    ):
        """However long the outage and however eager the clients, total
        granted retries never exceed capacity plus everything the bucket
        could possibly have refilled, and every client still reaches a
        terminal state exactly once per artifact."""
        kernel = SimKernel(seed=seed)
        origin = make_origin(kernel, names=("alpha",))
        proxy = SiteProxy("px", origin, kernel=kernel)
        injector = FaultInjector(kernel, origins=[origin])
        injector.apply(
            FaultPlan(
                "t",
                (
                    FaultSpec(
                        FaultKind.ORIGIN_CRASH, "origin",
                        at_s=crash_at, duration_s=crash_for,
                    ),
                ),
            )
        )
        budget = RetryBudget(
            capacity=capacity, refill_per_s=refill, kernel=kernel
        )
        fleet = [
            RepoClient(
                f"c{i}", proxy, kernel=kernel,
                policy=RetryPolicy(
                    max_attempts=20, base_delay_s=2.0, jitter=0.3,
                    deadline_s=2000.0,
                ),
                budget=budget,
            )
            for i in range(clients)
        ]
        for i, client in enumerate(fleet):
            client.sync(["alpha"], at_s=float(i))
        drain(kernel)
        max_refill = refill * kernel.now_s
        assert budget.granted <= capacity + max_refill + 1e-6
        assert budget.tokens(kernel.now_s) >= -1e-9
        for client in fleet:
            assert client.problems() == []
        assert repod_confluence_problems(
            kernel.trace.events,
            servers=[origin], proxies=[proxy], clients=fleet,
        ) == []


# --- the grant fold ---------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    clients=st.integers(min_value=1, max_value=6),
    capacity=st.floats(min_value=1.0, max_value=14.0),
    refill=st.floats(min_value=0.0, max_value=0.04),
)
@settings(max_examples=30, deadline=None)
def test_property_folded_grants_expand_to_every_decision(seed, clients, capacity, refill):
    """A governed storm traces each granted retry once, on its ``fault.retry``
    record.  Put the old grant record back in front of each and the trace is,
    record for record, the one every-decision budget (``tests/oracles``)
    writes; the storm's report is the same either way."""

    def storm():
        scenario = UpdateStormScenario(
            seed=seed, clients_per_campus=clients,
            budget_capacity=capacity, budget_refill_per_s=refill,
        )
        return scenario, scenario.run()

    with patch.object(RetryBudget, "try_spend", retry_budget.try_spend), \
            patch.object(RepoClient, "_maybe_retry", retry_budget.maybe_retry):
        oracle, oracle_report = storm()
    shipped, report = storm()
    assert report.state_dict() == oracle_report.state_dict()
    assert shipped.kernel.trace.count("repod.retry_budget") == report.budget_denied
    expected = [
        (e.t_s, e.kind, e.subsystem, dict(e.data)) for e in oracle.kernel.trace.events
    ]
    assert retry_budget.expand_grants(shipped.kernel.trace.events) == expected
