"""Unit tests for repro.bus.endpoints (the synchronous SOA layer)."""

import pytest

from repro.bus.endpoints import EndpointRegistry, ServiceEndpoint
from repro.exceptions import EndpointError


class TestServiceEndpoint:
    def test_invoke_returns_operation_result(self):
        endpoint = ServiceEndpoint("echo", lambda req: req)
        assert endpoint.invoke("hello") == "hello"
        assert endpoint.stats.calls == 1

    def test_empty_name_rejected(self):
        with pytest.raises(EndpointError):
            ServiceEndpoint("", lambda req: req)

    def test_offline_endpoint_rejects_calls(self):
        endpoint = ServiceEndpoint("svc", lambda req: req)
        endpoint.take_offline()
        assert not endpoint.available
        with pytest.raises(EndpointError):
            endpoint.invoke("x")
        assert endpoint.stats.failures == 1
        assert endpoint.stats.calls == 0

    def test_operation_exception_propagates_and_counts(self):
        def failing(req):
            raise ValueError("fault response")

        endpoint = ServiceEndpoint("svc", failing)
        with pytest.raises(ValueError):
            endpoint.invoke("x")
        assert endpoint.stats.calls == 1
        assert endpoint.stats.failures == 1


class TestEndpointRegistry:
    def test_expose_and_call(self):
        registry = EndpointRegistry()
        registry.expose("double", lambda req: req * 2)
        assert registry.call("double", 21) == 42
        assert len(registry) == 1

    def test_duplicate_names_rejected(self):
        registry = EndpointRegistry()
        registry.expose("svc", lambda req: req)
        with pytest.raises(EndpointError):
            registry.expose("svc", lambda req: req)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(EndpointError):
            EndpointRegistry().call("nope", 1)

    def test_names_and_total_calls(self):
        registry = EndpointRegistry()
        registry.expose("a", lambda req: req)
        registry.expose("b", lambda req: req)
        registry.call("a", 1)
        registry.call("a", 2)
        registry.call("b", 3)
        assert set(registry.names()) == {"a", "b"}
        assert registry.total_calls() == 3
