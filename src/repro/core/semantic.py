"""Semantic-aware generation (paper Alg. 3).

Given a data model's linear form and the puzzle corpus, construct new
seeds chunk by chunk: for each position whose construction rule has
donors in the corpus, splice donor puzzles; otherwise fall back to the
inherent rule (the Peach mutators).  The paper enumerates the full
``p × q × ...`` cartesian product of donor choices; a practical fuzzer
must bound that, so the recursion is capped at ``batch_limit`` seeds per
invocation with rng-shuffled donor order (the enumeration *prefix* under
a random order is an unbiased sample of the product).

Decide eagerly, build lazily.  :meth:`SemanticGenerator.construct` makes
every random decision of a batch up front — which positions are pinned,
which donors are sampled, the DFS over their decoded values — and
returns one :class:`SpliceRecipe` per batch slot: the donor assignments
plus a 32-bit seed for the inherent-rule fallback.  Packets are built
only when a recipe is consumed, by :meth:`SemanticGenerator.build`, a
pure function of the recipe that draws nothing from the generator's RNG.
Most slots of a batch are never executed (the engines run one and queue
or drop the rest), so deferring the build skips most of the splicing
work without changing which decisions a campaign makes at construct
time.  Recipes are also what the workspace checkpoints for the pending
queue: a model name, the assignments and the seed reproduce the packet.

Integrity is restored afterwards by the File Fixup pass, which in this
implementation is DataModel.build's relation/fixup resolution — spliced
donor values for relation or fixup carriers are never used.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.corpus import PuzzleCorpus
from repro.model.datamodel import DataModel, ValueProvider
from repro.model.fields import Blob, Choice, Field, Number, Repeat, Str
from repro.model.instree import InsTree
from repro.model.mutators import GenerationPolicy, MutatorProvider


class SpliceRecipe(NamedTuple):
    """One batch slot of Alg. 3, decided but not yet built.

    *assignments* maps dotted leaf paths to decoded donor values;
    *seed* seeds the inherent-rule fallback for every unpinned leaf and
    Choice/Repeat shape decision.
    """

    assignments: Dict[str, object]
    seed: int


class _SpliceProvider(ValueProvider):
    """ValueProvider that pins chosen leaves to donor values.

    Unpinned leaves (and Choice/Repeat shape decisions) delegate to the
    inherent mutator provider — paper Alg. 3 lines 14-15.
    """

    def __init__(self, assignments: Dict[str, object],
                 fallback: MutatorProvider):
        self.assignments = assignments
        self.fallback = fallback

    def leaf_value(self, field: Field, path: str):
        if path in self.assignments:
            return self.assignments[path]
        return self.fallback.leaf_value(field, path)

    def choose_option(self, choice: Choice, path: str) -> int:
        return self.fallback.choose_option(choice, path)

    def repeat_count(self, repeat: Repeat, path: str) -> int:
        return self.fallback.repeat_count(repeat, path)


def _decode_donor(field: Field, donor: bytes):
    """Convert donor bytes back into the leaf's value domain."""
    try:
        return field.decode(donor)
    except Exception:
        if isinstance(field, Blob):
            return donor
        if isinstance(field, Str):
            return donor.decode("latin-1", errors="replace")
        if isinstance(field, Number):
            # honor the field's signedness: 0xFF donated into a signed
            # byte is -1, not 255 — an unsigned decode lands outside the
            # value domain and breaks the CONSTRUCT step's re-encode
            if len(donor) >= field.width:
                return int.from_bytes(donor[:field.width], field.endian,
                                      signed=field.signed)
            return int.from_bytes(donor, field.endian,
                                  signed=field.signed)
        return None


class SemanticGenerator:
    """Implements CONSTRUCT of paper Alg. 3 with a batch cap."""

    #: donors sampled per spliceable position of one batch (the bound on
    #: each factor of Alg. 3's cartesian product)
    MAX_DONORS_PER_POSITION = 6

    def __init__(self, corpus: PuzzleCorpus, rng: random.Random,
                 policy: Optional[GenerationPolicy] = None,
                 batch_limit: int = 16,
                 pin_prob: float = 0.5):
        self.corpus = corpus
        self.rng = rng
        self.policy = policy
        self.batch_limit = batch_limit
        #: probability that a donor-bearing position is actually pinned in
        #: a given batch.  Literal Alg. 3 pins every such position
        #: (pin_prob=1.0); pinning a random subset keeps mutator entropy
        #: at the remaining positions so splicing explores new
        #: conjunctions instead of replaying old ones.  The ablation
        #: benchmark measures both settings.
        self.pin_prob = pin_prob
        #: (id(model), id(field)) -> dotted leaf path.  Safe to key on
        #: ids: ``DataModel.linear()`` memoizes its Field tuple, so the
        #: objects handed to ``_leaf_path`` stay alive (and identical)
        #: for the model's lifetime.  Purely derived — never persisted.
        self._path_cache: Dict[Tuple[int, int], str] = {}

    # ------------------------------------------------------------------

    def _donor_positions(self, model: DataModel
                         ) -> List[Tuple[str, Field, Tuple[bytes, ...]]]:
        """Linear-model positions that have donors (and may be spliced).

        Token, relation and fixup carriers are excluded: tokens are
        constants and the other two are recomputed by File Fixup.
        """
        positions = []
        for field in model.linear():
            if not _spliceable(field):
                continue
            if not self.corpus.has_donors(field):
                continue
            if self.pin_prob < 1.0 and self.rng.random() >= self.pin_prob:
                continue  # leave this position to the inherent rule
            chosen = self.corpus.sample_donors(
                field, self.MAX_DONORS_PER_POSITION)
            if not chosen:
                continue
            positions.append((self._leaf_path(model, field), field,
                              tuple(chosen)))
        return positions

    def _leaf_path(self, model: DataModel, target: Field) -> str:
        """Dotted path of a linear-model leaf within the default shape.

        Memoized: the recursive walk re-derives the same constant path
        for every donor-bearing position of every construct call, which
        showed up in the hot-loop profiles.
        """
        key = (id(model), id(target))
        path = self._path_cache.get(key)
        if path is None:
            path = _find_path(model.root, target, "")
            if path is None:  # pragma: no cover - linear() guarantees it
                raise ValueError(f"{target.name} not in {model.name}")
            self._path_cache[key] = path
        return path

    # ------------------------------------------------------------------

    def construct(self, model: DataModel) -> List[SpliceRecipe]:
        """Decide a batch of spliced seeds for *model*.

        Returns one recipe per batch slot, to be built with
        :meth:`build` when consumed, or ``[]`` when no position has
        donors (the caller then uses the inherent strategy unchanged).
        """
        positions = self._donor_positions(model)
        if not positions:
            return []
        batch: List[SpliceRecipe] = []
        assignments: Dict[str, object] = {}

        def recurse(index: int) -> bool:
            """DFS over donor choices; False aborts (batch full)."""
            if len(batch) >= self.batch_limit:
                return False
            if index == len(positions):
                batch.append(SpliceRecipe(dict(assignments),
                                          self.rng.getrandbits(32)))
                return True
            path, field, donors = positions[index]
            for donor in donors:
                value = _decode_donor(field, donor)
                if value is None:
                    continue
                assignments[path] = value
                if not recurse(index + 1):
                    return False
            assignments.pop(path, None)
            return True

        recurse(0)
        return batch

    def build(self, model: DataModel,
              recipe: SpliceRecipe) -> Tuple[InsTree, bytes]:
        """Build the packet *recipe* describes (pure: same recipe, same
        bytes; draws nothing from ``self.rng``)."""
        fallback = MutatorProvider(random.Random(recipe.seed), self.policy)
        tree = model.build(_SpliceProvider(recipe.assignments, fallback))
        return tree, model.to_wire(tree)


def _spliceable(field: Field) -> bool:
    """Whether a linear-model leaf may be pinned to a donor value."""
    return not field.token and field.relation is None \
        and field.fixup is None


def splice_paths(model: DataModel) -> FrozenSet[str]:
    """Every leaf path a :class:`SpliceRecipe` for *model* may assign."""
    return frozenset(_find_path(model.root, field, "")
                     for field in model.linear() if _spliceable(field))


def _find_path(field: Field, target: Field, prefix: str) -> Optional[str]:
    """Locate *target* in the default-shaped tree, mirroring build paths."""
    path = f"{prefix}.{field.name}" if prefix else field.name
    if field is target:
        return path
    if isinstance(field, Choice):
        return _find_path(field.children()[0], target, path)
    if isinstance(field, Repeat):
        return _find_path(field.element, target, f"{path}[0]")
    for child in field.children():
        found = _find_path(child, target, path)
        if found is not None:
            return found
    return None
