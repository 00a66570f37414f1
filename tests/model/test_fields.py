"""Unit tests for the field classes (construction rules)."""

import pytest

from repro.model import (
    Blob, Block, Choice, DataModel, ModelError, Number, ParseError, Repeat,
    RuleSignature, Str,
)


class TestNumber:
    def test_encode_decode_roundtrip(self):
        field = Number("n", 2, default=7)
        assert field.decode(field.encode(0x1234)) == 0x1234

    def test_big_endian_layout(self):
        assert Number("n", 2).encode(0x0102) == b"\x01\x02"

    def test_little_endian_layout(self):
        assert Number("n", 2, endian="little").encode(0x0102) == b"\x02\x01"

    def test_three_byte_width(self):
        field = Number("ioa", 3, endian="little")
        assert field.encode(0x010203) == b"\x03\x02\x01"
        assert field.decode(b"\x03\x02\x01") == 0x010203

    def test_overflow_wraps_like_c(self):
        assert Number("n", 1).encode(0x1FF) == b"\xff"

    def test_signed_encode_decode(self):
        field = Number("n", 2, signed=True)
        assert field.decode(field.encode(-5)) == -5

    def test_signed_overflow_wraps(self):
        field = Number("n", 1, signed=True)
        assert field.decode(field.encode(200)) == 200 - 256

    def test_decode_wrong_width_raises(self):
        with pytest.raises(ParseError):
            Number("n", 2).decode(b"\x01")

    def test_values_constraint(self):
        field = Number("fc", 1, default=3, values=(1, 2, 3))
        assert field.validate(2)
        assert not field.validate(9)

    def test_min_max_constraint(self):
        field = Number("q", 2, default=10, minimum=1, maximum=125)
        assert field.validate(125)
        assert not field.validate(0)
        assert not field.validate(126)

    def test_default_violating_constraints_rejected(self):
        with pytest.raises(ModelError):
            Number("q", 1, default=9, values=(1, 2))

    def test_bad_width_rejected(self):
        with pytest.raises(ModelError):
            Number("n", 5)

    def test_bad_endian_rejected(self):
        with pytest.raises(ModelError):
            Number("n", 2, endian="middle")


class TestStr:
    def test_variable_roundtrip(self):
        field = Str("s", default="abc")
        assert field.decode(field.encode("hello")) == "hello"

    def test_fixed_length_pads(self):
        field = Str("s", length=4)
        assert field.encode("ab") == b"ab\x00\x00"

    def test_fixed_length_truncates(self):
        field = Str("s", length=2)
        assert field.encode("abcdef") == b"ab"

    def test_fixed_decode_wrong_length_raises(self):
        with pytest.raises(ParseError):
            Str("s", length=4).decode(b"ab")

    def test_bad_pad_rejected(self):
        with pytest.raises(ModelError):
            Str("s", pad=b"xy")

    @pytest.mark.parametrize("field,raw,value", [
        (Str("s", length=4), b"ab\x00\x00", "ab"),
        (Str("s", length=4, pad=b" "), b"ab  ", "ab"),
        (Str("s", length=4), b"abcd", "abcd"),
        (Str("s"), b"ab\x00\x00", "ab\x00\x00"),
    ], ids=["nul-padded", "space-padded", "full-width", "variable-length"])
    def test_decode_drops_fixed_length_padding(self, field, raw, value):
        assert field.decode(raw) == value
        assert field.decode_lenient(raw) == value

    def test_lenient_decode_drops_padding_of_a_truncated_value(self):
        assert Str("s", length=4).decode_lenient(b"ab\x00") == "ab"

    @pytest.mark.parametrize("token", [True, False], ids=["token", "plain"])
    def test_padded_str_datamodel_roundtrip(self, token):
        model = DataModel("m", Block("root", [
            Str("magic", default="AB", length=4, token=token),
            Number("x", 1),
        ]))
        data = model.build_bytes()
        assert data == b"AB\x00\x00\x00"
        parsed = model.parse(data)
        assert parsed.leaf_values() == model.build().leaf_values()
        assert parsed.raw == data


class TestBlob:
    def test_variable_passthrough(self):
        field = Blob("b")
        assert field.encode(b"\x01\x02") == b"\x01\x02"

    def test_fixed_length_pads_and_truncates(self):
        field = Blob("b", length=3)
        assert field.encode(b"\x01") == b"\x01\x00\x00"
        assert field.encode(b"\x01\x02\x03\x04") == b"\x01\x02\x03"

    def test_fixed_default_normalized(self):
        field = Blob("b", length=4, default=b"\x01")
        assert field.default_value() == b"\x01\x00\x00\x00"


class TestBlock:
    def test_children_order_preserved(self):
        block = Block("blk", [Number("a", 1), Number("b", 1)])
        assert [c.name for c in block.children()] == ["a", "b"]

    def test_duplicate_child_names_rejected(self):
        with pytest.raises(ModelError):
            Block("blk", [Number("a", 1), Number("a", 2)])

    def test_empty_block_rejected(self):
        with pytest.raises(ModelError):
            Block("blk", [])

    def test_fixed_width_sums_children(self):
        block = Block("blk", [Number("a", 2), Number("b", 4)])
        assert block.fixed_width() == 6

    def test_fixed_width_none_with_variable_child(self):
        block = Block("blk", [Number("a", 2), Blob("b")])
        assert block.fixed_width() is None

    def test_child_lookup(self):
        inner = Number("a", 1)
        block = Block("blk", [inner])
        assert block.child("a") is inner
        with pytest.raises(ModelError):
            block.child("missing")

    def test_iter_leaves_depth_first(self):
        block = Block("outer", [
            Number("a", 1),
            Block("inner", [Number("b", 1), Number("c", 1)]),
            Number("d", 1),
        ])
        assert [f.name for f in block.iter_leaves()] == ["a", "b", "c", "d"]


class TestChoiceRepeat:
    def test_choice_same_width_options(self):
        choice = Choice("c", [Number("a", 2), Number("b", 2)])
        assert choice.fixed_width() == 2

    def test_choice_mixed_width_is_variable(self):
        choice = Choice("c", [Number("a", 2), Number("b", 4)])
        assert choice.fixed_width() is None

    def test_repeat_bounds_validated(self):
        with pytest.raises(ModelError):
            Repeat("r", Number("x", 1), min_count=5, max_count=2)


class TestSignatures:
    def test_same_semantic_same_signature(self):
        a = Number("address", 2, semantic="address")
        b = Number("read_address", 2, semantic="address")
        assert a.signature() == b.signature()
        assert a.signature().stable_id() == b.signature().stable_id()

    def test_different_width_different_signature(self):
        a = Number("x", 2, semantic="address")
        b = Number("x", 4, semantic="address")
        assert a.signature() != b.signature()

    def test_semantic_defaults_to_name(self):
        assert Number("quantity", 2).signature().semantic == "quantity"

    def test_signature_is_hashable_and_stable(self):
        sig = RuleSignature("number", 2, "address")
        assert sig.stable_id() == RuleSignature("number", 2,
                                                "address").stable_id()
        assert {sig: 1}[sig] == 1

    def test_str_rendering(self):
        assert str(RuleSignature("blob", 0, "payload")) == "blob[var]:payload"
