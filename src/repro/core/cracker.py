"""File Cracker: split valuable seeds into puzzles (paper Alg. 2).

Given the format specification (the pit) and a detected valuable seed,
try to PARSE the seed with every data model; for each model whose
Instantiation Tree is LEGAL, DFS the tree and collect every sub-tree's
content into the puzzle corpus.

Cracking against *all* models — not just the one that generated the seed —
is deliberate: a packet generated by model ``M_i`` that also parses under
``M_j`` deposits its chunks under ``M_j``'s rule signatures too, which is
how construction-rule similarity across packet types (paper Fig. 2a) is
harvested.

Most of those parses are rejections, so before the recursive parse each
model checks its fixed-offset token bytes
(:meth:`~repro.model.datamodel.DataModel.tokens_match`), and a model
whose tokens cannot match is skipped.  That is exact: ``tokens_match``
is False only for bytes a strict parse must reject, and a rejected
parse deposits nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.corpus import PuzzleCorpus
from repro.model.datamodel import Pit
from repro.model.fields import ParseError
from repro.model.instree import InsTree

#: parse-result cache entries retained per cracker (LRU)
CRACK_CACHE_SIZE = 256


class FileCracker:
    """Cracks valuable seeds into the puzzle corpus.

    Parsing one seed against every data model of the pit is the
    expensive half of a crack, and the same bytes recur: session mode
    cracks every step of every valuable trace, and honest trace
    prefixes repeat across mutations.  ``crack`` therefore memoizes the
    *parse* results per seed bytes in a bounded LRU — the corpus
    deposit still runs on every call, because repeat deposits reinforce
    puzzle weights (``corpus.add`` counts duplicates) and the cache
    must not change observable corpus state.  Parsed trees are
    immutable once built, so sharing them across calls is safe.
    """

    def __init__(self, pit: Pit, corpus: PuzzleCorpus):
        self.pit = pit
        self.corpus = corpus
        self.seeds_cracked = 0
        self.models_matched = 0
        self.puzzles_deposited = 0
        #: seed bytes -> ((model_name, parsed tree), ...); derived state,
        #: never checkpointed — a resumed cracker just re-parses
        self._parse_cache: OrderedDict[bytes, Tuple] = OrderedDict()
        self.cache_hits = 0

    def _parsed_models(self, seed: bytes) -> Tuple:
        """All ``(model_name, tree)`` pairs the seed is LEGAL under."""
        cached = self._parse_cache.get(seed)
        if cached is not None:
            self._parse_cache.move_to_end(seed)
            self.cache_hits += 1
            return cached
        parses = []
        for model in self.pit:
            if not model.tokens_match(seed):
                continue  # a strict parse must reject it
            try:
                parses.append((model.name, model.parse(seed)))
            except ParseError:
                continue  # not LEGAL under this model
        entry = tuple(parses)
        self._parse_cache[seed] = entry
        if len(self._parse_cache) > CRACK_CACHE_SIZE:
            self._parse_cache.popitem(last=False)
        return entry

    def crack(self, seed: bytes, tree: Optional[InsTree] = None) -> int:
        """Crack one valuable seed; returns the number of new puzzles.

        When the generating engine kept the seed's own InsTree, it is
        deposited directly (no re-parse can fail); the seed is then also
        parsed under every *other* data model of the pit.
        """
        new_puzzles = 0
        matched = 0
        skip_model = None
        if tree is not None:
            new_puzzles += self._deposit(tree)
            skip_model = tree.model_name
            matched += 1
        for model_name, parsed in self._parsed_models(seed):
            if model_name == skip_model:
                continue
            matched += 1
            new_puzzles += self._deposit(parsed)
        self.seeds_cracked += 1
        self.models_matched += matched
        self.puzzles_deposited += new_puzzles
        return new_puzzles

    def _deposit(self, tree: InsTree) -> int:
        """The DFS of paper Alg. 2: every sub-tree contributes a puzzle.

        Pre-order, like :meth:`InsNode.iter_nodes`, walked with an
        explicit stack: deposit order feeds the corpus's eviction RNG.
        """
        added = 0
        add = self.corpus.add
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            field = node.field
            if field.fixup is not None or field.relation is not None:
                # File Fixup recomputes these carriers, so their cracked
                # values are useless as donors
                continue
            if field.token:
                continue  # tokens are constants; donating them is a no-op
            if node.raw and add(field.signature(), node.raw):
                added += 1
        return added
