"""Peach-style mutators: type-aware random instantiation of rules.

Paper §II: "Mutator generates data in these ways: random generation,
mutation on default value and mutation on existing chunks."  The
:class:`MutatorProvider` below implements exactly those three strategies,
per data type, and plugs into :meth:`DataModel.build` as a
:class:`~repro.model.datamodel.ValueProvider`.

This module is the *inherent* generation strategy shared by the baseline
Peach engine and by Peach* (which falls back to it for chunks that have
no donors, paper Alg. 3 lines 14-15).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.model.datamodel import ValueProvider
from repro.model.fields import Blob, Choice, Field, Number, Repeat, Str


@dataclass
class GenerationPolicy:
    """Tunables of the inherent generation strategy.

    The probabilities describe how a leaf value is chosen; they sum to at
    most 1, the remainder going to plain random generation.
    """

    default_prob: float = 0.35     # mutation on / reuse of default value
    legal_value_prob: float = 0.30  # pick from the field's legal value set
    edge_case_prob: float = 0.15   # boundary values (0, 1, MAX, ...)
    history_prob: float = 0.0      # mutation on existing chunks (opt-in)
    token_fuzz_prob: float = 0.0   # corrupt token fields (off: Peach keeps
    # tokens intact so packets stay well-formed)
    max_string_len: int = 32
    max_blob_len: int = 96
    history_limit: int = 64        # chunks remembered per rule signature


#: (width, signed) -> edge-case list; pure in those two attributes, and
#: rebuilding it per draw was measurable in the hot-loop profiles
_EDGE_CASE_CACHE: Dict[tuple, List[int]] = {}


def number_edge_cases(field: Number) -> List[int]:
    """Boundary values for a number field (AFL/Peach "interesting" values)."""
    key = (field.width, field.signed)
    cached = _EDGE_CASE_CACHE.get(key)
    if cached is not None:
        return cached
    bits = field.width * 8
    unsigned_max = (1 << bits) - 1
    cases = [0, 1, unsigned_max, unsigned_max - 1, unsigned_max >> 1,
             (unsigned_max >> 1) + 1]
    for shift in (7, 8, 15, 16, 31):
        if shift < bits:
            cases.extend(((1 << shift) - 1, 1 << shift, (1 << shift) + 1))
    if field.signed:
        cases.extend((-1, -(1 << (bits - 1)), (1 << (bits - 1)) - 1))
    seen = set()
    out = []
    for case in cases:
        if case not in seen:
            seen.add(case)
            out.append(case)
    _EDGE_CASE_CACHE[key] = out
    return out


class MutatorProvider(ValueProvider):
    """Random, type-aware value provider (the GENERATE of paper Alg. 1).

    Parameters
    ----------
    rng:
        Seeded :class:`random.Random`; all decisions flow through it so a
        campaign is reproducible.
    policy:
        Strategy weights, see :class:`GenerationPolicy`.
    """

    def __init__(self, rng: random.Random,
                 policy: Optional[GenerationPolicy] = None):
        self.rng = rng
        self.policy = policy if policy is not None else GenerationPolicy()
        # rule-signature id -> recent concrete values ("existing chunks")
        self._history: Dict[int, List[object]] = {}

    # -- history ("mutation on existing chunks") -----------------------------

    def remember(self, field: Field, value) -> None:
        """Record a generated chunk so later packets may mutate it."""
        if self.policy.history_prob <= 0:
            return
        bucket = self._history.setdefault(field.signature().stable_id(), [])
        bucket.append(value)
        if len(bucket) > self.policy.history_limit:
            del bucket[0]

    def _from_history(self, field: Field):
        bucket = self._history.get(field.signature().stable_id())
        if not bucket:
            return None
        return self.rng.choice(bucket)

    # -- ValueProvider hooks -------------------------------------------------

    def leaf_value(self, field: Field, path: str):
        if field.token:
            if self.policy.token_fuzz_prob > 0 and \
                    self.rng.random() < self.policy.token_fuzz_prob:
                return self._random_value(field)
            return None  # keep the token's default
        value = self._pick_value(field)
        self.remember(field, value)
        return value

    def choose_option(self, choice: Choice, path: str) -> int:
        return self.rng.randrange(len(choice.children()))

    def repeat_count(self, repeat: Repeat, path: str) -> int:
        roll = self.rng.random()
        if roll < 0.30:
            return max(repeat.min_count, 1)
        if roll < 0.45:
            return repeat.min_count
        if roll < 0.55:
            return repeat.max_count
        return self.rng.randint(repeat.min_count, repeat.max_count)

    # -- per-type strategies ---------------------------------------------------

    def _pick_value(self, field: Field):
        policy = self.policy
        roll = self.rng.random()
        threshold = policy.history_prob
        if roll < threshold:
            existing = self._from_history(field)
            if existing is not None:
                return self._mutate_existing(field, existing)
        threshold += policy.default_prob
        if roll < threshold:
            return self._mutate_default(field)
        threshold += policy.legal_value_prob
        if roll < threshold:
            legal = self._legal_value(field)
            if legal is not None:
                return legal
        threshold += policy.edge_case_prob
        if roll < threshold and isinstance(field, Number):
            return self.rng.choice(number_edge_cases(field))
        return self._random_value(field)

    def _legal_value(self, field: Field):
        if isinstance(field, Number):
            if field.values:
                return self.rng.choice(field.values)
            if field.minimum is not None and field.maximum is not None:
                return self.rng.randint(field.minimum, field.maximum)
        return None

    def _mutate_default(self, field: Field):
        default = field.default_value()
        if isinstance(field, Number):
            if self.rng.random() < 0.5:
                return default
            delta = self.rng.choice((-2, -1, 1, 2, 0x10, 0x100))
            return default + delta
        if isinstance(field, Str):
            if not default or self.rng.random() < 0.5:
                return default
            pos = self.rng.randrange(len(default))
            replacement = chr(self.rng.randrange(32, 127))
            return default[:pos] + replacement + default[pos + 1:]
        if isinstance(field, Blob):
            if not default or self.rng.random() < 0.5:
                return default
            data = bytearray(default)
            pos = self.rng.randrange(len(data))
            data[pos] ^= 1 << self.rng.randrange(8)
            return bytes(data)
        return default

    def _mutate_existing(self, field: Field, existing):
        if isinstance(field, Number) and isinstance(existing, int):
            if self.rng.random() < 0.6:
                return existing
            return existing + self.rng.choice((-1, 1))
        return existing

    def _random_value(self, field: Field):
        if isinstance(field, Number):
            bits = field.width * 8
            return self.rng.getrandbits(bits)
        if isinstance(field, Str):
            length = field.length if field.length is not None else \
                self.rng.randrange(self.policy.max_string_len + 1)
            return "".join(chr(self.rng.randrange(32, 127))
                           for _ in range(length))
        if isinstance(field, Blob):
            if field.length is not None:
                length = field.length
            else:
                cap = min(self.policy.max_blob_len, field.max_length)
                length = self.rng.randrange(cap + 1)
            return bytes(self.rng.getrandbits(8) for _ in range(length))
        return field.default_value()
