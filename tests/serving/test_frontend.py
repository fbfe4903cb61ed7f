"""Query frontend: coalesced batching parity, caching, hot reload, HTTP.

The frontend's one hard promise: a query that rode a dynamic batch
returns *bit-identical* results to calling ``query_many`` directly —
for every k, every backend transport, and on both sides of a live
snapshot reload.  Everything else here (cache coherence across swaps,
eager validation keeping bad queries out of shared batches, the HTTP
status mapping) defends that promise's edges.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import QueryError, ServingError
from repro.index.delta import GraphDelta
from repro.serving import (
    BatchCoalescer,
    FrontendConfig,
    FrontendServer,
    QueryFrontend,
    ResultCache,
)
from repro.serving.frontend import parse_listen
from tests.serving.test_facade_sharded import toy_engine

K_VALUES = (1, 5, 16)


@pytest.fixture
def thread_engine():
    engine, ds = toy_engine(shards=2, serving_workers=2)
    engine.fit("family", labels=ds.class_labels("family"), num_examples=40)
    yield engine, ds
    engine.close()


@pytest.fixture(scope="module")
def process_engine():
    engine, ds = toy_engine(
        shards=2, serving_workers=2, serving_backend="process", replicas=1
    )
    engine.fit("family", labels=ds.class_labels("family"), num_examples=40)
    yield engine, ds
    engine.close()


def frontend_for(engine, **overrides) -> QueryFrontend:
    defaults = dict(max_batch=4, max_delay_ms=5.0, cache_size=64)
    defaults.update(overrides)
    return QueryFrontend(engine, config=FrontendConfig(**defaults))


def query_all_concurrently(frontend, queries, k, while_in_flight=None):
    """Every query from its own thread — the coalescer's real workload."""
    results: dict = {}
    errors: list[BaseException] = []

    def one(query) -> None:
        try:
            results[query] = frontend.query("family", query, k=k)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(q,)) for q in queries]
    for thread in threads:
        thread.start()
    if while_in_flight is not None:
        while_in_flight()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


def gate_query_many(monkeypatch, engine):
    """Park every ``engine.query_many`` call until ``release`` is set."""
    entered, release = threading.Event(), threading.Event()
    real_query_many = engine.query_many

    def gated_query_many(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=10)
        return real_query_many(*args, **kwargs)

    monkeypatch.setattr(engine, "query_many", gated_query_many)
    return entered, release


def wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def gated_dispatch(fail_first: BaseException | None = None):
    """A recording dispatch whose first call parks until ``release`` is set.

    Holding one batch in flight is what makes a group *busy*; every
    flush rule below is asserted against that state instead of against
    elapsed time.  With ``fail_first`` the first call raises it instead.
    """
    batches: list[tuple] = []
    entered, release = threading.Event(), threading.Event()

    def dispatch(cls, queries, k):
        batches.append((cls, list(queries), k))
        if len(batches) == 1:
            if fail_first is not None:
                raise fail_first
            entered.set()
            assert release.wait(timeout=10)
        return [[(q, 1.0)] for q in queries]

    return dispatch, batches, entered, release


def frozen_clock() -> float:
    """A clock that never reaches any deadline."""
    return 0.0


class TestCoalescer:
    def test_lone_query_dispatches_at_once(self):
        dispatch, batches, _entered, release = gated_dispatch()
        release.set()
        co = BatchCoalescer(
            dispatch, max_batch=1000, max_delay=30.0, clock=frozen_clock
        )
        try:
            # no size trigger, no deadline: only the idle path flushes this
            assert co.submit("c", "lonely", 5).result(timeout=5) == [
                ("lonely", 1.0)
            ]
            assert batches == [("c", ["lonely"], 5)]
        finally:
            co.close()

    def test_full_batch_flushes_without_waiting(self):
        dispatch, batches, entered, release = gated_dispatch()
        co = BatchCoalescer(
            dispatch, max_batch=3, max_delay=30.0, clock=frozen_clock
        )
        try:
            first = co.submit("c", "q0", 5)
            assert entered.wait(timeout=5)
            futures = [co.submit("c", f"q{i}", 5) for i in (1, 2, 3)]
            # q0 is still in flight and the deadline never comes: only
            # the size trigger can flush these, and as one batch
            assert [f.result(timeout=5) for f in futures] == [
                [("q1", 1.0)], [("q2", 1.0)], [("q3", 1.0)],
            ]
            assert batches == [("c", ["q0"], 5), ("c", ["q1", "q2", "q3"], 5)]
            release.set()
            assert first.result(timeout=5) == [("q0", 1.0)]
        finally:
            release.set()
            co.close()

    def test_delay_flushes_partial_batch(self):
        dispatch, batches, entered, release = gated_dispatch()
        co = BatchCoalescer(dispatch, max_batch=1000, max_delay=0.02)
        try:
            first = co.submit("c", "q0", 5)
            assert entered.wait(timeout=5)
            # queued behind q0, which stays in flight: only the
            # deadline can flush this
            assert co.submit("c", "lonely", 5).result(timeout=5) == [
                ("lonely", 1.0)
            ]
            assert not first.done()
        finally:
            release.set()
            co.close()

    def test_completion_flushes_queued_arrivals_in_order(self):
        dispatch, batches, entered, release = gated_dispatch()
        co = BatchCoalescer(
            dispatch, max_batch=1000, max_delay=30.0, clock=frozen_clock
        )
        try:
            first = co.submit("c", "q0", 5)
            assert entered.wait(timeout=5)
            futures = [co.submit("c", f"q{i}", 5) for i in (1, 2, 3)]
            assert not any(f.done() for f in futures)
            release.set()
            # neither full nor due: the completion of q0 flushed them
            assert [f.result(timeout=5) for f in [first] + futures] == [
                [(f"q{i}", 1.0)] for i in range(4)
            ]
            assert batches == [("c", ["q0"], 5), ("c", ["q1", "q2", "q3"], 5)]
            assert co.stats["coalesced_batches"] == 1
        finally:
            release.set()
            co.close()

    def test_zero_delay_never_parks(self):
        dispatch, batches, entered, release = gated_dispatch()
        co = BatchCoalescer(dispatch, max_batch=1000, max_delay=0.0)
        try:
            first = co.submit("c", "q0", 5)
            assert entered.wait(timeout=5)
            assert co.submit("c", "q1", 5).result(timeout=5) == [("q1", 1.0)]
            assert not first.done()
        finally:
            release.set()
            co.close()

    def test_distinct_class_and_k_never_share_a_batch(self):
        dispatch, batches, entered, release = gated_dispatch()
        co = BatchCoalescer(
            dispatch, max_batch=10, max_delay=30.0, clock=frozen_clock
        )
        try:
            first = co.submit("a", "q1", 5)
            assert entered.wait(timeout=5)
            # a busy ("a", 5) holds back neither other group
            for future in (co.submit("a", "q2", 7), co.submit("b", "q3", 5)):
                future.result(timeout=5)
            assert not first.done()
            release.set()
            first.result(timeout=5)
            assert sorted(b[:1] + b[2:] for b in batches) == [
                ("a", 5), ("a", 7), ("b", 5),
            ]
        finally:
            release.set()
            co.close()

    def test_dispatch_error_fails_every_future_in_the_batch(self):
        dispatch, batches, entered, release = gated_dispatch()

        def failing(cls, queries, k):
            dispatch(cls, queries, k)
            if len(queries) > 1:
                raise ServingError("fleet on fire")
            return [[(q, 1.0)] for q in queries]

        co = BatchCoalescer(
            failing, max_batch=1000, max_delay=30.0, clock=frozen_clock
        )
        try:
            first = co.submit("c", "q0", 5)
            assert entered.wait(timeout=5)
            futures = [co.submit("c", f"q{i}", 5) for i in (1, 2)]
            release.set()
            for future in futures:
                with pytest.raises(ServingError, match="fleet on fire"):
                    future.result(timeout=5)
            # exactly the futures of the failing batch
            assert first.result(timeout=5) == [("q0", 1.0)]
        finally:
            release.set()
            co.close()

    @pytest.mark.parametrize(
        "failure, match",
        [
            (ServingError("fleet on fire"), "fleet on fire"),
            (None, "0 rankings"),
            (SystemExit(), "interrupted by SystemExit"),
        ],
    )
    def test_failed_dispatch_leaves_the_group_idle(self, failure, match):
        dispatch, batches, _entered, release = gated_dispatch(failure)
        release.set()

        def flaky(cls, queries, k):
            results = dispatch(cls, queries, k)
            return [] if failure is None and len(batches) == 1 else results

        co = BatchCoalescer(
            flaky, max_batch=1000, max_delay=30.0, clock=frozen_clock
        )
        try:
            with pytest.raises(ServingError, match=match):
                co.submit("c", "doomed", 5).result(timeout=5)
            # a leaked in-flight slot would park this one for good
            assert co.submit("c", "next", 5).result(timeout=5) == [
                ("next", 1.0)
            ]
        finally:
            co.close()

    def test_concurrent_submitters_never_wedge_a_group(self):
        served: list[int] = []

        def dispatch(_cls, queries, _k):
            served.append(len(queries))
            return [[(q, 1.0)] for q in queries]

        co = BatchCoalescer(
            dispatch, max_batch=4, max_delay=30.0, clock=frozen_clock
        )
        outcomes: dict[int, list] = {}

        def client(name: int) -> None:
            # closed loop over two groups; with the deadline out of
            # reach a lost in-flight update parks a query for good
            outcomes[name] = [
                co.submit("c", (name, i), i % 2).result(timeout=10)
                for i in range(200)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            co.close()
        assert outcomes == {
            name: [[((name, i), 1.0)] for i in range(200)] for name in range(8)
        }
        assert sum(served) == co.stats["submitted"] == 8 * 200

    def test_wrong_cardinality_is_a_serving_error(self):
        co = BatchCoalescer(lambda *_: [], max_batch=1, max_delay=30.0)
        try:
            with pytest.raises(ServingError, match="0 rankings"):
                co.submit("c", "q", 5).result(timeout=5)
        finally:
            co.close()

    def test_close_flushes_pending_then_rejects(self):
        dispatch, batches, entered, release = gated_dispatch()
        co = BatchCoalescer(
            dispatch, max_batch=1000, max_delay=30.0, clock=frozen_clock
        )
        first = co.submit("c", "q0", 5)
        assert entered.wait(timeout=5)
        pending = co.submit("c", "pending", 5)
        closer = threading.Thread(target=co.close)
        closer.start()
        # close() flushed it while q0 was still in flight ...
        assert pending.result(timeout=5) == [("pending", 1.0)]
        assert not first.done()
        release.set()
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert first.result(timeout=5) == [("q0", 1.0)]
        # ... and nothing gets in afterwards
        with pytest.raises(ServingError, match="closed"):
            co.submit("c", "late", 5)


class TestBatchingParity:
    @pytest.mark.parametrize("k", K_VALUES)
    def test_thread_backend_parity(self, thread_engine, k):
        engine, _ds = thread_engine
        queries = list(engine.universe())
        expected = {
            q: r for q, r in zip(queries, engine.query_many("family", queries, k=k))
        }
        with frontend_for(engine, cache_size=0) as frontend:
            assert query_all_concurrently(frontend, queries, k) == expected

    @pytest.mark.parametrize("k", K_VALUES)
    def test_process_backend_parity(self, process_engine, k):
        engine, _ds = process_engine
        queries = list(engine.universe())
        expected = {
            q: r for q, r in zip(queries, engine.query_many("family", queries, k=k))
        }
        with frontend_for(engine, cache_size=0) as frontend:
            assert query_all_concurrently(frontend, queries, k) == expected

    def test_batches_actually_coalesce(self, thread_engine, monkeypatch):
        engine, _ds = thread_engine
        queries = list(engine.universe())
        expected = dict(zip(queries, engine.query_many("family", queries, k=3)))
        entered, release = gate_query_many(monkeypatch, engine)
        with frontend_for(
            engine, cache_size=0, max_batch=len(queries), max_delay_ms=30_000.0
        ) as frontend:

            def release_once_all_are_queued() -> None:
                wait_until(
                    lambda: frontend.stats()["batching"]["submitted"]
                    == len(queries),
                    "every query to reach the coalescer",
                )
                assert entered.is_set()
                release.set()

            try:
                results = query_all_concurrently(
                    frontend, queries, 3, release_once_all_are_queued
                )
            finally:
                release.set()
            assert results == expected
            stats = frontend.stats()["batching"]
            # the first arrival went out alone; everyone who arrived
            # while it was in flight rode one batch behind it
            assert stats["batches"] == 2
            assert stats["largest_batch"] == len(queries) - 1

    def test_bad_query_rejected_before_joining_a_batch(self, thread_engine):
        engine, _ds = thread_engine
        with frontend_for(engine) as frontend:
            with pytest.raises(QueryError):
                frontend.query("family", "NotANode", k=3)
            with pytest.raises(QueryError):
                frontend.query("family", "Music", k=3)  # off-anchor
            with pytest.raises(ValueError):
                frontend.query("family", "Kate", k=-1)
            # nothing was enqueued, so nothing was dispatched
            assert frontend.stats()["batching"]["submitted"] == 0
            # and a good neighbour still serves
            assert frontend.query("family", "Kate", k=3) == engine.query(
                "family", "Kate", k=3
            )


class TestCaching:
    def test_repeat_query_hits_the_cache(self, thread_engine):
        engine, _ds = thread_engine
        with frontend_for(engine) as frontend:
            first = frontend.query("family", "Kate", k=3)
            again = frontend.query("family", "Kate", k=3)
            assert again == first
            stats = frontend.stats()
            assert stats["cache"]["hits"] == 1
            assert stats["batching"]["submitted"] == 1  # second never dispatched

    def test_distinct_k_distinct_entries(self, thread_engine):
        engine, _ds = thread_engine
        with frontend_for(engine) as frontend:
            assert frontend.query("family", "Kate", k=1) != frontend.query(
                "family", "Kate", k=3
            )
            assert frontend.stats()["cache"]["hits"] == 0

    def test_ttl_expiry_recomputes(self, thread_engine):
        engine, _ds = thread_engine
        clock = [0.0]
        cache = ResultCache(max_size=64, ttl=10.0, clock=lambda: clock[0])
        with QueryFrontend(
            engine,
            config=FrontendConfig(max_batch=4, max_delay_ms=1.0),
            cache=cache,
        ) as frontend:
            first = frontend.query("family", "Kate", k=3)
            clock[0] = 11.0
            assert frontend.query("family", "Kate", k=3) == first
            assert cache.stats.expirations == 1
            assert frontend.stats()["batching"]["submitted"] == 2

    def test_disabled_cache_always_dispatches(self, thread_engine):
        engine, _ds = thread_engine
        with frontend_for(engine, cache_size=0) as frontend:
            frontend.query("family", "Kate", k=3)
            frontend.query("family", "Kate", k=3)
            assert frontend.stats()["batching"]["submitted"] == 2


class TestHotReload:
    def _publish_updated_snapshot(self, tmp_path: Path, labels):
        """A second engine applies a delta and publishes snapshot v2."""
        publisher, _ds = toy_engine(shards=2, serving_workers=2)
        publisher.fit("family", labels=labels, num_examples=40)
        delta = (
            GraphDelta()
            .add_node("Mia", "user")
            .add_edge("Mia", "College A")
            .add_edge("Mia", "Physics")
        )
        publisher.apply_updates(delta)
        snapshot = publisher.save_index(tmp_path / "v2")
        return publisher, snapshot

    @pytest.mark.parametrize("k", K_VALUES)
    def test_parity_before_and_after_reload(self, thread_engine, tmp_path, k):
        engine, ds = thread_engine
        labels = ds.class_labels("family")
        publisher, snapshot = self._publish_updated_snapshot(tmp_path, labels)
        with frontend_for(engine, cache_size=0) as frontend:
            before = list(engine.universe())
            expected = {
                q: r
                for q, r in zip(
                    before, publisher.query_many("family", before, k=k)
                )
            }
            outcome = frontend.reload(snapshot)
            after = list(engine.universe())
            assert "Mia" in after  # update-log suffix replayed onto the graph
            expected["Mia"] = publisher.query_many("family", ["Mia"], k=k)[0]
            assert query_all_concurrently(frontend, after, k) == expected
            assert outcome["digest"] == frontend.digest
        publisher.close()

    def test_reload_advances_digest_and_invalidates(
        self, thread_engine, tmp_path
    ):
        engine, ds = thread_engine
        labels = ds.class_labels("family")
        publisher, snapshot = self._publish_updated_snapshot(tmp_path, labels)
        with frontend_for(engine) as frontend:
            stale = frontend.query("family", "Kate", k=3)
            old_digest = frontend.digest
            outcome = frontend.reload(snapshot)
            assert outcome["digest"] != old_digest
            assert outcome["invalidated"] == 1
            # post-swap answers come from the new snapshot, not the cache
            fresh = frontend.query("family", "Kate", k=3)
            assert fresh == publisher.query_many("family", ["Kate"], k=3)[0]
            assert frontend.stats()["cache"]["hits"] == 0
            assert stale == stale  # the pre-swap object is orphaned, not served
        publisher.close()

    def test_reload_during_inflight_batch_never_caches_cross_digest(
        self, thread_engine, tmp_path
    ):
        # a reload landing between key capture and batch completion must
        # not memoise the (new-snapshot) result under the old digest
        engine, ds = thread_engine
        labels = ds.class_labels("family")
        publisher, snapshot = self._publish_updated_snapshot(tmp_path, labels)
        cache = ResultCache(max_size=64)
        gate = threading.Event()
        release = threading.Event()
        real_query_many = engine.query_many

        def gated_query_many(*args, **kwargs):
            gate.set()
            release.wait(timeout=10)
            return real_query_many(*args, **kwargs)

        engine.query_many = gated_query_many
        try:
            with QueryFrontend(
                engine,
                config=FrontendConfig(max_batch=1, max_delay_ms=0.0),
                cache=cache,
            ) as frontend:
                result: list = []
                thread = threading.Thread(
                    target=lambda: result.append(
                        frontend.query("family", "Kate", k=3)
                    )
                )
                thread.start()
                assert gate.wait(timeout=10)
                engine.query_many = real_query_many
                frontend.reload(snapshot)
                release.set()
                thread.join(timeout=10)
                assert result
                assert len(cache) == 0  # the in-flight result was not cached
        finally:
            engine.query_many = real_query_many
            release.set()
            publisher.close()

    def test_process_backend_reload_parity(self, tmp_path):
        engine, ds = toy_engine(
            shards=2, serving_workers=2, serving_backend="process", replicas=1
        )
        labels = ds.class_labels("family")
        engine.fit("family", labels=labels, num_examples=40)
        publisher, snapshot = self._publish_updated_snapshot(tmp_path, labels)
        try:
            with frontend_for(engine, cache_size=0) as frontend:
                assert frontend.query("family", "Kate", k=5)
                frontend.reload(snapshot)
                queries = list(engine.universe())
                expected = {
                    q: r
                    for q, r in zip(
                        queries, publisher.query_many("family", queries, k=5)
                    )
                }
                assert query_all_concurrently(frontend, queries, 5) == expected
        finally:
            publisher.close()
            engine.close()

    def test_watch_picks_up_published_snapshot(self, thread_engine, tmp_path):
        engine, ds = thread_engine
        labels = ds.class_labels("family")
        with frontend_for(engine) as frontend:
            old_digest = frontend.digest
            frontend.watch(tmp_path / "live", poll_interval=0.05)
            publisher, snapshot = self._publish_updated_snapshot(
                tmp_path, labels
            )
            snapshot.rename(tmp_path / "live")
            deadline = time.monotonic() + 10.0
            while frontend.digest == old_digest:
                assert time.monotonic() < deadline, "watcher never reloaded"
                time.sleep(0.05)
            assert frontend.query("family", "Mia", k=3) == (
                publisher.query_many("family", ["Mia"], k=3)[0]
            )
            publisher.close()


class TestConfig:
    def test_env_defaults_and_flag_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_FRONTEND_MAX_BATCH", "7")
        monkeypatch.setenv("REPRO_FRONTEND_MAX_DELAY_MS", "1.5")
        monkeypatch.setenv("REPRO_FRONTEND_CACHE_SIZE", "99")
        monkeypatch.setenv("REPRO_FRONTEND_CACHE_TTL", "60")
        config = FrontendConfig.from_env()
        assert (config.max_batch, config.max_delay_ms) == (7, 1.5)
        assert (config.cache_size, config.cache_ttl) == (99, 60.0)
        override = FrontendConfig.from_env(max_batch=3, cache_ttl=5.0)
        assert (override.max_batch, override.cache_ttl) == (3, 5.0)
        assert override.cache_size == 99  # env still fills the gaps

    def test_unset_env_falls_back_to_defaults(self, monkeypatch):
        for name in (
            "REPRO_FRONTEND_MAX_BATCH",
            "REPRO_FRONTEND_MAX_DELAY_MS",
            "REPRO_FRONTEND_CACHE_SIZE",
            "REPRO_FRONTEND_CACHE_TTL",
        ):
            monkeypatch.delenv(name, raising=False)
        config = FrontendConfig.from_env()
        assert (config.max_batch, config.max_delay_ms) == (32, 2.0)
        assert (config.cache_size, config.cache_ttl) == (4096, None)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            FrontendConfig(max_batch=0)
        with pytest.raises(ValueError):
            FrontendConfig(max_delay_ms=-1.0)

    def test_parse_listen(self):
        assert parse_listen("127.0.0.1:8766") == ("127.0.0.1", 8766)
        assert parse_listen("[::1]:80") == ("[::1]", 80)
        for bad in ("8766", "host:", ":80", "host:abc"):
            with pytest.raises(ValueError):
                parse_listen(bad)


class TestHTTP:
    @pytest.fixture
    def served(self, thread_engine):
        engine, _ds = thread_engine
        with frontend_for(engine) as frontend:
            with FrontendServer(frontend, port=0).start() as server:
                host, port = server.address
                yield engine, frontend, f"http://{host}:{port}"

    @staticmethod
    def _address(base: str) -> tuple[str, int]:
        host, port = base.removeprefix("http://").split(":")
        return host, int(port)

    def _get(self, base: str, path: str):
        try:
            with urllib.request.urlopen(base + path, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def _post(self, base: str, path: str, doc: dict):
        request = urllib.request.Request(
            base + path,
            data=json.dumps(doc).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_health_and_stats(self, served):
        _engine, frontend, base = served
        status, doc = self._get(base, "/health")
        assert status == 200
        assert doc == {"status": "ok", "digest": frontend.digest}
        status, doc = self._get(base, "/stats")
        assert status == 200
        assert doc["digest"] == frontend.digest
        assert "cache" in doc and "batching" in doc

    def test_get_query_matches_engine(self, served):
        engine, _frontend, base = served
        status, doc = self._get(base, "/query?class=family&query=Kate&k=3")
        assert status == 200
        assert [tuple(r) for r in doc["results"]] == engine.query(
            "family", "Kate", k=3
        )
        status, full = self._get(base, "/query?class=family&query=Kate&k=none")
        assert status == 200 and full["k"] is None
        assert len(full["results"]) == len(engine.universe()) - 1

    def test_post_query_matches_engine(self, served):
        engine, _frontend, base = served
        status, doc = self._post(
            base, "/query", {"class": "family", "query": "Kate", "k": 3}
        )
        assert status == 200
        assert [tuple(r) for r in doc["results"]] == engine.query(
            "family", "Kate", k=3
        )

    def test_error_statuses(self, served):
        _engine, _frontend, base = served
        assert self._get(base, "/query?class=family&query=Ghost")[0] == 400
        assert self._get(base, "/query?class=nope&query=Kate")[0] == 404
        assert self._get(base, "/query?class=family")[0] == 400
        assert self._get(base, "/query?class=family&query=Kate&k=x")[0] == 400
        assert self._get(base, "/nowhere")[0] == 404
        assert self._post(base, "/reload", {"snapshot": "/no/such/dir"})[0] == 400
        kate = {"class": "family", "query": "Kate"}
        assert self._post(base, "/query", {**kate, "k": True})[0] == 400
        assert self._post(base, "/query", {**kate, "query": {"a": 1}})[0] == 400
        assert self._post(base, "/query", {**kate, "class": 5})[0] == 400
        assert self._post(base, "/reload", {"snapshot": 5})[0] == 400

    def test_timed_out_query_is_a_serving_error_and_a_503(
        self, thread_engine, monkeypatch
    ):
        engine, _ds = thread_engine
        _entered, release = gate_query_many(monkeypatch, engine)
        with frontend_for(engine, request_timeout=0.05) as frontend:
            with FrontendServer(frontend, port=0).start() as server:
                host, port = server.address
                try:
                    with pytest.raises(ServingError, match="timed out"):
                        frontend.query("family", "Kate", k=3)
                    status, doc = self._get(
                        f"http://{host}:{port}",
                        "/query?class=family&query=Jay&k=3",
                    )
                    assert status == 503 and "timed out" in doc["error"]
                finally:
                    release.set()

    def test_one_write_per_response_on_a_nodelay_socket(
        self, served, monkeypatch
    ):
        _engine, _frontend, base = served
        host, port = self._address(base)
        writes: list[bool] = []  # per server-side send: was TCP_NODELAY on?

        def counting(name):
            real = getattr(socket.socket, name)

            def send(sock, data, *flags):
                if sock.getsockname()[1] == port:
                    writes.append(
                        bool(
                            sock.getsockopt(
                                socket.IPPROTO_TCP, socket.TCP_NODELAY
                            )
                        )
                    )
                return real(sock, data, *flags)

            return send

        # buffered wfile -> SocketIO.write -> send; unbuffered -> sendall
        monkeypatch.setattr(socket.socket, "send", counting("send"))
        monkeypatch.setattr(socket.socket, "sendall", counting("sendall"))
        client = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for path, status in [
                ("/health", 200),
                ("/stats", 200),
                ("/query?class=family&query=Kate&k=3", 200),  # miss
                ("/query?class=family&query=Kate&k=3", 200),  # hit
                ("/query?class=family&query=Ghost", 400),
                ("/nowhere", 404),
            ]:
                del writes[:]
                client.request("GET", path)
                response = client.getresponse()
                response.read()
                assert response.status == status
                assert writes == [True], (path, writes)
        finally:
            client.close()

    def _raw(self, base: str, request: bytes, then: bytes = b""):
        """Send raw bytes; read to EOF -> (status, JSON body, interim)."""
        interim = b""
        with socket.create_connection(self._address(base), timeout=10) as sock:
            sock.sendall(request)
            if then:
                interim = sock.recv(4096)
                sock.sendall(then)
            reply = b""
            while chunk := sock.recv(4096):  # EOF: the server hung up
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body), interim

    @pytest.mark.parametrize(
        "length, status", [("-1", 400), ("nope", 400), ("99999999999", 413)]
    )
    def test_hostile_content_length_is_refused_unread(
        self, served, length, status
    ):
        _engine, _frontend, base = served
        # keep-alive request: only the server's close_connection ends it
        got, doc, _ = self._raw(
            base,
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {length}"
            "\r\n\r\n".encode(),
        )
        assert got == status and "error" in doc
        wait_until(
            lambda: not any(
                "process_request_thread" in t.name
                for t in threading.enumerate()
            ),
            "the handler thread to finish",
        )

    def test_expect_100_continue_is_answered_before_the_body(self, served):
        engine, _frontend, base = served
        body = json.dumps({"class": "family", "query": "Kate", "k": 3}).encode()
        status, doc, interim = self._raw(
            base,
            f"POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Expect: 100-continue\r\nContent-Length: {len(body)}"
            "\r\n\r\n".encode(),
            then=body,
        )
        assert interim.startswith(b"HTTP/1.1 100 Continue")
        assert status == 200
        assert [tuple(r) for r in doc["results"]] == engine.query(
            "family", "Kate", k=3
        )

    def test_reload_endpoint_refreshes(self, served):
        _engine, frontend, base = served
        status, doc = self._post(base, "/reload", {})
        assert status == 200
        assert doc["digest"] == frontend.digest
