"""Field classes for the Peach-style data-model tree.

A data model (paper Fig. 1) is a tree whose internal nodes are ``Block`` /
``Choice`` / ``Repeat`` fields and whose leaves are ``Number`` / ``Str`` /
``Blob`` fields.  Each field is a *construction rule*: it knows how to
encode a value to bytes, how to decode bytes back to a value, and which
other rules it is compatible with (its :class:`RuleSignature`, used by the
puzzle corpus's ``GETDONOR``).

Fields are declarative and immutable after model construction; per-packet
state lives in :class:`repro.model.instree.InsNode` instances.  That is
what lets a field compute its :class:`RuleSignature` once, on first use,
and hand out the same object (and stable id) ever after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.util import fnv1a32


class ModelError(Exception):
    """Raised for malformed data-model definitions."""


class ParseError(Exception):
    """Raised when input bytes do not match the data model (illegal InsTree)."""


@dataclass(frozen=True)
class RuleSignature:
    """Identity of a construction rule, used for donor matching.

    Two chunks are considered to "conform to similar construction rules"
    (paper Fig. 2a) when their signatures are equal: same field kind, same
    encoded width and the same *semantic* tag.  Model authors align the
    semantic tag across data models (e.g. the ``quantity`` field of Modbus
    FC 0x0F and FC 0x10) to declare that donors may flow between them.
    """

    kind: str
    width: int  # encoded width in bytes; 0 when variable
    semantic: str

    def __post_init__(self):
        # hashed once: the corpus and the mutators key every deposit and
        # lookup by this id (not a dataclass field, so eq/hash ignore it)
        object.__setattr__(self, "_stable_id", fnv1a32(
            f"{self.kind}/{self.width}/{self.semantic}"))

    def stable_id(self) -> int:
        """32-bit stable identifier of this signature."""
        return self._stable_id

    def __str__(self) -> str:
        width = str(self.width) if self.width else "var"
        return f"{self.kind}[{width}]:{self.semantic}"


class Field:
    """Base class of all data-model fields.

    Parameters
    ----------
    name:
        Field name, unique among its siblings.
    semantic:
        Tag aligning this rule with compatible rules in other data models.
        Defaults to the field name.
    token:
        Token fields (e.g. magic bytes, the function-code of a per-type
        data model) must match their default on parse and are never
        mutated during generation.
    """

    kind = "field"
    is_leaf = True

    def __init__(self, name: str, semantic: Optional[str] = None,
                 token: bool = False):
        if not name:
            raise ModelError("field name must be non-empty")
        self.name = name
        self.semantic = semantic if semantic is not None else name
        self.token = token
        self.relation = None  # set via repro.model.relations
        self.fixup = None     # set via repro.model.fixups
        self._signature: Optional[RuleSignature] = None

    # -- structure ---------------------------------------------------------

    def children(self) -> Sequence["Field"]:
        return ()

    def iter_leaves(self) -> Iterator["Field"]:
        """Yield leaf fields in declaration order (the linear model M_L)."""
        if self.is_leaf:
            yield self
        else:
            for child in self.children():
                yield from child.iter_leaves()

    # -- rule identity -----------------------------------------------------

    def fixed_width(self) -> Optional[int]:
        """Encoded width in bytes when static, else ``None``."""
        return None

    def signature(self) -> RuleSignature:
        signature = self._signature
        if signature is None:
            signature = self._signature = RuleSignature(
                self.kind, self.fixed_width() or 0, self.semantic)
        return signature

    # -- value codec (leaves override) --------------------------------------

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes):
        raise NotImplementedError

    def decode_lenient(self, data: bytes):
        """Best-effort decode of possibly-truncated bytes (never raises).

        The non-strict parse path uses this when the wire data runs out
        mid-leaf; leaves fall back to their default when even a partial
        decode is impossible.
        """
        try:
            return self.decode(data)
        except ParseError:
            return self.default_value()

    def default_value(self):
        raise NotImplementedError

    def validate(self, value) -> bool:
        """Return True when *value* satisfies this rule's constraints."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Number(Field):
    """Fixed-width integer field.

    Parameters mirror Peach's ``<Number>``: ``width`` is in *bytes*
    (1, 2, 3, 4 or 8), ``endian`` is ``"big"`` or ``"little"``, and the
    optional ``values`` sequence restricts the legal value set (used for
    opcode / function-code fields and enumerations).
    """

    kind = "number"

    def __init__(self, name: str, width: int = 1, *, endian: str = "big",
                 default: int = 0, signed: bool = False,
                 values: Optional[Sequence[int]] = None,
                 minimum: Optional[int] = None, maximum: Optional[int] = None,
                 semantic: Optional[str] = None, token: bool = False):
        super().__init__(name, semantic=semantic, token=token)
        if width not in (1, 2, 3, 4, 8):
            raise ModelError(f"unsupported number width {width} for {name!r}")
        if endian not in ("big", "little"):
            raise ModelError(f"bad endian {endian!r} for {name!r}")
        self.width = width
        self.endian = endian
        self.default = default
        self.signed = signed
        self.values = tuple(values) if values is not None else None
        self.minimum = minimum
        self.maximum = maximum
        if not self.validate(default) and not token:
            raise ModelError(f"default {default} violates constraints of {name!r}")

    def fixed_width(self) -> Optional[int]:
        return self.width

    def default_value(self) -> int:
        return self.default

    def encode(self, value: int) -> bytes:
        bits = self.width * 8
        if self.signed:
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        else:
            lo, hi = 0, (1 << bits) - 1
        if not lo <= value <= hi:
            value &= (1 << bits) - 1  # wrap like a C integer
            if self.signed and value > hi:
                value -= 1 << bits
        return value.to_bytes(self.width, self.endian, signed=self.signed)

    def decode(self, data: bytes) -> int:
        if len(data) != self.width:
            raise ParseError(
                f"{self.name}: need {self.width} bytes, got {len(data)}")
        return int.from_bytes(data, self.endian, signed=self.signed)

    def decode_lenient(self, data: bytes) -> int:
        if not data:
            return self.default
        return int.from_bytes(data, self.endian, signed=self.signed)

    def validate(self, value: int) -> bool:
        if self.values is not None and value not in self.values:
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True


class Str(Field):
    """ASCII string field, optionally fixed-length or null-padded."""

    kind = "string"

    def __init__(self, name: str, *, default: str = "", length: Optional[int] = None,
                 pad: bytes = b"\x00", semantic: Optional[str] = None,
                 token: bool = False):
        super().__init__(name, semantic=semantic, token=token)
        if len(pad) != 1:
            raise ModelError(f"pad must be a single byte for {name!r}")
        self.default = default
        self.length = length
        self.pad = pad

    def fixed_width(self) -> Optional[int]:
        return self.length

    def default_value(self) -> str:
        return self.default

    def encode(self, value: str) -> bytes:
        raw = value.encode("latin-1", errors="replace")
        if self.length is None:
            return raw
        if len(raw) > self.length:
            return raw[:self.length]
        return raw + self.pad * (self.length - len(raw))

    def decode(self, data: bytes) -> str:
        if self.length is not None and len(data) != self.length:
            raise ParseError(
                f"{self.name}: need {self.length} bytes, got {len(data)}")
        return self.decode_lenient(data)

    def decode_lenient(self, data: bytes) -> str:
        if self.length is not None:
            data = data.rstrip(self.pad)  # drop the padding encode added
        return data.decode("latin-1")


class Blob(Field):
    """Opaque byte field; ``length=None`` means variable-length.

    A variable-length blob gets its extent either from a ``SizeOf``
    relation on a preceding field or, failing that, greedily consumes the
    remainder of the enclosing block on parse.
    """

    kind = "blob"

    def __init__(self, name: str, *, default: bytes = b"",
                 length: Optional[int] = None,
                 max_length: int = 1024,
                 semantic: Optional[str] = None, token: bool = False):
        super().__init__(name, semantic=semantic, token=token)
        self.default = bytes(default)
        self.length = length
        self.max_length = max_length
        if length is not None and len(self.default) != length:
            self.default = (self.default + b"\x00" * length)[:length]

    def fixed_width(self) -> Optional[int]:
        return self.length

    def default_value(self) -> bytes:
        return self.default

    def encode(self, value: bytes) -> bytes:
        value = bytes(value)
        if self.length is None:
            return value
        if len(value) >= self.length:
            return value[:self.length]
        return value + b"\x00" * (self.length - len(value))

    def decode(self, data: bytes) -> bytes:
        if self.length is not None and len(data) != self.length:
            raise ParseError(
                f"{self.name}: need {self.length} bytes, got {len(data)}")
        return bytes(data)

    def decode_lenient(self, data: bytes) -> bytes:
        return bytes(data)


class Block(Field):
    """Internal node grouping an ordered sequence of child fields."""

    kind = "block"
    is_leaf = False

    def __init__(self, name: str, children: Sequence[Field], *,
                 semantic: Optional[str] = None):
        super().__init__(name, semantic=semantic)
        if not children:
            raise ModelError(f"block {name!r} must have children")
        names = [c.name for c in children]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate child names in block {name!r}: {names}")
        self._children = tuple(children)

    def children(self) -> Sequence[Field]:
        return self._children

    def fixed_width(self) -> Optional[int]:
        total = 0
        for child in self._children:
            width = child.fixed_width()
            if width is None:
                return None
            total += width
        return total

    def child(self, name: str) -> Field:
        for candidate in self._children:
            if candidate.name == name:
                return candidate
        raise ModelError(f"block {self.name!r} has no child {name!r}")


class Choice(Field):
    """Alternation: exactly one child applies.

    On parse the alternatives are tried in declaration order and the first
    one that parses cleanly (including token and value constraints) wins —
    the Peach ``<Choice>`` behaviour.
    """

    kind = "choice"
    is_leaf = False

    def __init__(self, name: str, options: Sequence[Field], *,
                 semantic: Optional[str] = None):
        super().__init__(name, semantic=semantic)
        if not options:
            raise ModelError(f"choice {name!r} must have options")
        self._options = tuple(options)

    def children(self) -> Sequence[Field]:
        return self._options

    def fixed_width(self) -> Optional[int]:
        widths = {opt.fixed_width() for opt in self._options}
        if len(widths) == 1:
            return widths.pop()
        return None


class Repeat(Field):
    """Homogeneous array of a child field.

    The element count comes from a ``CountOf`` relation on a preceding
    number field when present; otherwise parse consumes elements until the
    enclosing extent is exhausted.  ``min_count``/``max_count`` bound
    generation and constrain parse.
    """

    kind = "repeat"
    is_leaf = False

    def __init__(self, name: str, element: Field, *, min_count: int = 0,
                 max_count: int = 64, semantic: Optional[str] = None):
        super().__init__(name, semantic=semantic)
        if max_count < min_count:
            raise ModelError(f"repeat {name!r}: max_count < min_count")
        self.element = element
        self.min_count = min_count
        self.max_count = max_count

    def children(self) -> Sequence[Field]:
        return (self.element,)
