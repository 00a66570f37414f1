"""Puzzle corpus: cracked chunks keyed by construction-rule signature.

The File Cracker (paper Alg. 2) deposits every sub-tree of a valuable
seed's InsTree here; the semantic-aware generator's ``GETDONOR`` (paper
Alg. 3 line 10) queries it by the construction rule of the chunk being
generated.

Puzzles are stored with a *deposit count*: a chunk value that appears in
many valuable seeds (e.g. a data-model default that every deep packet
carries, or a rare in-range quantity) is a better donor than a one-off
byte pattern that happened to ride along on a single new path.  Donor
sampling is therefore frequency-weighted; the per-rule store is bounded,
evicting the least-deposited entry first.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.model.fields import Field, RuleSignature


class PuzzleCorpus:
    """Donor store for semantic-aware generation.

    Parameters
    ----------
    rng:
        Seeded RNG used for eviction ties and donor sampling.
    max_per_rule:
        Bound on stored distinct puzzles per construction-rule signature.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 max_per_rule: int = 64):
        self.rng = rng if rng is not None else random.Random(0)
        self.max_per_rule = max_per_rule
        # signature id -> {puzzle bytes: deposit count}
        self._store: Dict[int, Dict[bytes, int]] = {}

    # ------------------------------------------------------------------
    # deposit
    # ------------------------------------------------------------------

    def add(self, signature: RuleSignature, puzzle: bytes) -> bool:
        """Store (or reinforce) one puzzle; True when it was new."""
        key = signature.stable_id()
        bucket = self._store.setdefault(key, {})
        if puzzle in bucket:
            bucket[puzzle] += 1
            return False
        if len(bucket) >= self.max_per_rule:
            victim = min(bucket, key=lambda item: (bucket[item],
                                                   self.rng.random()))
            del bucket[victim]
        bucket[puzzle] = 1
        return True

    def add_all(self, puzzles) -> int:
        """Store an iterable of ``(signature, bytes)``; returns new count."""
        added = 0
        for signature, puzzle in puzzles:
            if self.add(signature, puzzle):
                added += 1
        return added

    # ------------------------------------------------------------------
    # GETDONOR
    # ------------------------------------------------------------------

    def donors(self, rule: Field) -> Tuple[bytes, ...]:
        """All stored puzzles conforming to *rule* (paper's Candidates)."""
        bucket = self._store.get(rule.signature().stable_id())
        if not bucket:
            return ()
        return tuple(bucket)

    def sample_donors(self, rule: Field, k: int) -> List[bytes]:
        """Up to *k* distinct donors, sampled ∝ their deposit counts."""
        bucket = self._store.get(rule.signature().stable_id())
        if not bucket:
            return []
        entries = list(bucket.items())
        if len(entries) <= k:
            chosen = [puzzle for puzzle, _count in entries]
            self.rng.shuffle(chosen)
            return chosen
        chosen: List[bytes] = []
        weights = [count for _puzzle, count in entries]
        for _ in range(k):
            total = sum(weights)
            if total <= 0:
                break
            roll = self.rng.random() * total
            acc = 0.0
            for index, weight in enumerate(weights):
                acc += weight
                if roll < acc:
                    chosen.append(entries[index][0])
                    weights[index] = 0  # without replacement
                    break
        return chosen

    def pick_donor(self, rule: Field) -> Optional[bytes]:
        """One frequency-weighted donor for *rule*, or None."""
        sampled = self.sample_donors(rule, 1)
        return sampled[0] if sampled else None

    def has_donors(self, rule: Field) -> bool:
        return bool(self._store.get(rule.signature().stable_id()))

    def deposit_count(self, rule: Field, puzzle: bytes) -> int:
        """How many times *puzzle* was deposited for *rule* (0 if absent)."""
        bucket = self._store.get(rule.signature().stable_id())
        if not bucket:
            return 0
        return bucket.get(puzzle, 0)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._store

    def rule_count(self) -> int:
        """Distinct construction-rule signatures with at least one donor."""
        return len(self._store)

    def puzzle_count(self) -> int:
        return sum(len(bucket) for bucket in self._store.values())

    def __len__(self) -> int:
        return self.puzzle_count()
