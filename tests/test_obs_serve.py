"""Tests for the live /metrics endpoint (repro.obs.serve).

Every server binds port 0 (ephemeral) so tests never collide with a
real scrape target or with each other.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import JoinConfig
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.serve import MetricsServer, serve_metrics


def fetch(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.counter("setjoin_joins_total", "Completed joins").inc(3)
    registry.gauge("setjoin_last_buffer_hit_rate", "Hit rate").set(0.75)
    return registry


class TestMetricsServer:
    def test_metrics_endpoint_serves_prometheus_text(self, registry):
        with MetricsServer(port=0, registry=registry) as server:
            status, headers, body = fetch(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "setjoin_joins_total 3" in body
        assert "setjoin_last_buffer_hit_rate 0.75" in body

    def test_scrape_sees_updates_without_restart(self, registry):
        with MetricsServer(port=0, registry=registry) as server:
            __, __, before = fetch(server.url + "/metrics")
            registry.counter("setjoin_joins_total", "Completed joins").inc()
            __, __, after = fetch(server.url + "/metrics")
        assert "setjoin_joins_total 3" in before
        assert "setjoin_joins_total 4" in after

    def test_healthz(self, registry):
        with MetricsServer(port=0, registry=registry) as server:
            status, __, body = fetch(server.url + "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok", "service": "setjoin"}

    def test_unknown_path_is_404_with_endpoint_list(self, registry):
        with MetricsServer(port=0, registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + "/nope")
            document = json.loads(excinfo.value.read().decode())
        assert excinfo.value.code == 404
        assert document["endpoints"] == ["/metrics", "/healthz"]

    def test_port_zero_resolves_after_start(self, registry):
        server = MetricsServer(port=0, registry=registry)
        assert server.port == 0
        try:
            server.start()
            assert server.port != 0
            assert str(server.port) in server.url
            assert server.running
        finally:
            server.stop()
        assert not server.running

    def test_stop_is_idempotent_and_releases_the_port(self, registry):
        server = MetricsServer(port=0, registry=registry).start()
        server.stop()
        server.stop()  # second stop is a no-op
        # The instance can be started again after a full stop.
        server.start()
        try:
            status, __, __ = fetch(server.url + "/healthz")
            assert status == 200
        finally:
            server.stop()

    def test_double_start_rejected(self, registry):
        server = MetricsServer(port=0, registry=registry).start()
        try:
            with pytest.raises(ConfigurationError, match="already running"):
                server.start()
        finally:
            server.stop()

    def test_invalid_port_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid port"):
            MetricsServer(port=-1)
        with pytest.raises(ConfigurationError, match="invalid port"):
            MetricsServer(port=70_000)

    def test_serve_metrics_helper_starts_immediately(self, registry):
        server = serve_metrics(port=0, registry=registry)
        try:
            assert server.running
            __, __, body = fetch(server.url + "/metrics")
            assert "setjoin_joins_total" in body
        finally:
            server.stop()


class TestDriftOnMetrics:
    def test_analyzed_join_drift_shows_up_on_the_endpoint(self):
        from repro.data.workloads import uniform_workload
        from repro.obs.explain import analyze_join

        registry = MetricsRegistry()
        lhs, rhs = uniform_workload(
            r_size=40, s_size=60, theta_r=6, theta_s=12,
            domain_size=200, seed=3,
        ).materialize()
        analyze_join(
            lhs, rhs, JoinConfig(algorithm="DCJ", num_partitions=8),
            registry=registry,
        )
        with MetricsServer(port=0, registry=registry) as server:
            __, __, body = fetch(server.url + "/metrics")
        assert "setjoin_drift_records_total 1" in body
        assert "setjoin_drift_last_seconds_relative_error" in body
        assert "setjoin_drift_seconds_abs_error_bucket" in body


class TestBearerTokenAuth:
    def fetch_with_header(self, url, header=None):
        request = urllib.request.Request(url)
        if header is not None:
            request.add_header("Authorization", header)
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read().decode()

    def test_metrics_requires_the_token(self, registry):
        with MetricsServer(port=0, registry=registry, token="s3cret") as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + "/metrics")
        assert excinfo.value.code == 401
        assert excinfo.value.headers["WWW-Authenticate"] == "Bearer"
        assert json.loads(excinfo.value.read().decode()) == {
            "error": "unauthorized"
        }

    def test_correct_bearer_token_passes(self, registry):
        with MetricsServer(port=0, registry=registry, token="s3cret") as server:
            status, body = self.fetch_with_header(
                server.url + "/metrics", "Bearer s3cret"
            )
        assert status == 200
        assert "setjoin_joins_total 3" in body

    def test_wrong_token_rejected(self, registry):
        with MetricsServer(port=0, registry=registry, token="s3cret") as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.fetch_with_header(server.url + "/metrics", "Bearer nope")
        assert excinfo.value.code == 401

    def test_healthz_stays_open_for_liveness_probes(self, registry):
        with MetricsServer(port=0, registry=registry, token="s3cret") as server:
            status, __, body = fetch(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_no_token_keeps_the_endpoint_open(self, registry):
        with MetricsServer(port=0, registry=registry) as server:
            status, __, __ = fetch(server.url + "/metrics")
        assert status == 200

    def test_malformed_tokens_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="token"):
            MetricsServer(port=0, token="")
        with pytest.raises(ConfigurationError, match="token"):
            MetricsServer(port=0, token="two\nlines")

    def test_serve_metrics_helper_threads_the_token(self, registry):
        server = serve_metrics(port=0, registry=registry, token="t0k3n")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + "/metrics")
            assert excinfo.value.code == 401
            status, __ = self.fetch_with_header(
                server.url + "/metrics", "Bearer t0k3n"
            )
            assert status == 200
        finally:
            server.stop()


class TestLifecycleRaces:
    def test_concurrent_stops_do_not_race(self, registry):
        import threading

        server = MetricsServer(port=0, registry=registry).start()
        errors = []

        def stopper():
            try:
                server.stop()
            except Exception as error:  # noqa: BLE001 — the race under test
                errors.append(error)

        threads = [threading.Thread(target=stopper) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert errors == []
        assert not server.running

    def test_fixed_port_rebinds_immediately_after_stop(self, registry):
        # SO_REUSEADDR: the restarted server reclaims the same port even
        # though the previous socket may linger in TIME_WAIT.
        first = MetricsServer(port=0, registry=registry).start()
        port = first.port
        first.stop()
        second = MetricsServer(port=port, registry=registry).start()
        try:
            status, __, __ = fetch(second.url + "/healthz")
            assert status == 200
            assert second.port == port
        finally:
            second.stop()
