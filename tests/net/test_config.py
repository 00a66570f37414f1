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
        ("connect_timeout_ms", 0.0, r"connect_timeout_ms 0\.0 is not > 0"),
        ("reconnect", -3, r"reconnect -3 < 0"),
    ], ids=["timeout-0", "timeout-negative", "timeout-nan",
            "connect-timeout-0", "reconnect-negative"])
    def test_out_of_range_budget_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            NetConfig(**{field: value}).validate()
