"""NetConfig validation: the transport budgets a campaign may run with."""

import pytest

from repro.net import NetConfig


class TestValidate:
    def test_defaults_validate(self):
        NetConfig().validate()

    def test_zero_reconnects_is_a_budget(self):
        NetConfig(reconnect=0).validate()

    @pytest.mark.parametrize("field,value,message", [
        ("timeout_ms", 0.0, r"timeout_ms 0\.0 is not > 0"),
        ("timeout_ms", -5.0, r"timeout_ms -5\.0 is not > 0"),
        ("timeout_ms", float("nan"), r"timeout_ms nan is not > 0"),
        ("reconnect", -3, r"reconnect -3 < 0"),
    ], ids=["timeout-0", "timeout-negative", "timeout-nan",
            "reconnect-negative"])
    def test_out_of_range_budget_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            NetConfig(**{field: value}).validate()

    @pytest.mark.parametrize("url", [
        "loopback", "tcp://127.0.0.1:2404", "tcp://[::1]:2404",
        "tcp://plc.example:502",
    ])
    def test_well_formed_url_validates(self, url):
        NetConfig(url=url).validate()

    @pytest.mark.parametrize("url,message", [
        ("garbage", r"unsupported net url 'garbage'"),
        ("tcp://nohost", r"malformed tcp:// url: 'tcp://nohost'"),
        ("tcp://:2404", r"malformed tcp:// url: 'tcp://:2404'"),
        ("tcp://h:", r"malformed tcp:// url: 'tcp://h:'"),
        ("tcp://h:notaport", r"malformed port in 'tcp://h:notaport'"),
        ("tcp://h:70000", r"port 70000 out of range"),
        ("tcp://h:0", r"port 0 out of range"),
    ], ids=["no-scheme", "no-port", "no-host", "empty-port", "port-not-int",
            "port-too-large", "port-zero"])
    def test_malformed_url_is_rejected(self, url, message):
        with pytest.raises(ValueError, match=message):
            NetConfig(url=url).validate()
