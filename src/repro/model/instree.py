"""Instantiation Tree (paper Definition 1).

An :class:`InsTree` mirrors the data-model tree but its nodes hold
*realistic data chunks* — concrete values and raw bytes — instead of
construction rules.  It is produced either by building a packet (every
generated seed carries its InsTree) or by parsing a valuable seed in the
File Cracker (paper Alg. 2).

A *puzzle* (paper Definition 2) is the in-order byte content of any
sub-tree; :meth:`InsNode.iter_puzzles` yields them in DFS order, exactly
as Alg. 2's ``DFS`` procedure collects ``SubTreePuzzle`` values.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.model.fields import Field, RuleSignature


class InsNode:
    """One node of an Instantiation Tree.

    Attributes
    ----------
    field:
        The construction rule this node instantiates.
    value:
        Decoded value for leaves (int/str/bytes); ``None`` for internal
        nodes.
    children:
        Child nodes, in data-model order.
    raw:
        The exact bytes this sub-tree contributes to the packet — i.e.
        this sub-tree's puzzle.
    offset:
        Byte offset of ``raw`` within the whole packet.
    """

    __slots__ = ("field", "value", "children", "raw", "offset")

    def __init__(self, field: Field, value=None,
                 children: Optional[List["InsNode"]] = None,
                 raw: bytes = b"", offset: int = 0):
        self.field = field
        self.value = value
        self.children: List[InsNode] = children if children is not None else []
        self.raw = raw
        self.offset = offset

    @property
    def name(self) -> str:
        return self.field.name

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def signature(self) -> RuleSignature:
        return self.field.signature()

    # -- traversal ----------------------------------------------------------

    def iter_nodes(self) -> Iterator["InsNode"]:
        """Yield this node then all descendants, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def iter_leaves(self) -> Iterator["InsNode"]:
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node

    def iter_puzzles(self) -> Iterator[Tuple[RuleSignature, bytes]]:
        """Yield ``(signature, puzzle_bytes)`` for every sub-tree, post-order.

        This is the paper's Alg. 2 ``DFS``: a leaf's puzzle is its own
        content; an internal node's puzzle is the in-order joint of its
        children's puzzles, and every sub-tree contributes one corpus
        entry.
        """
        for child in self.children:
            yield from child.iter_puzzles()
        yield self.signature(), self.raw

    def find(self, name: str) -> Optional["InsNode"]:
        """Return the first node named *name* in DFS order, or ``None``."""
        for node in self.iter_nodes():
            if node.name == name:
                return node
        return None

    def leaf_values(self) -> dict:
        """Map each leaf's dotted path to its decoded value."""
        out = {}
        self._collect_leaf_values("", out)
        return out

    def _collect_leaf_values(self, prefix: str, out: dict) -> None:
        path = f"{prefix}.{self.name}" if prefix else self.name
        if self.is_leaf:
            out[path] = self.value
        elif self.field.kind == "repeat":
            # index repeated elements the way build paths do: items[i].item
            for index, child in enumerate(self.children):
                child._collect_leaf_values(f"{path}[{index}]", out)
        else:
            for child in self.children:
                child._collect_leaf_values(path, out)

    def pretty(self, indent: int = 0) -> str:
        """Human-readable rendering of the tree (used by the CLI/examples)."""
        pad = "  " * indent
        if self.is_leaf:
            shown = self.value
            if isinstance(shown, bytes) and len(shown) > 16:
                shown = shown[:16] + b"..."
            line = f"{pad}{self.name} = {shown!r}  ({self.signature()})"
            return line
        lines = [f"{pad}{self.name}/  ({len(self.raw)} bytes)"]
        lines.extend(child.pretty(indent + 1) for child in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InsNode {self.name!r} {len(self.raw)}B>"


class InsTree:
    """A parsed or built packet: root node plus the originating model name.

    ``tolerated`` is True on a tree a non-strict parse produced by
    tolerating something a strict parse rejects (a truncated leaf, a
    constraint violation, a clamped extent, ...); False on every built
    tree and every strictly parsed one.
    """

    def __init__(self, model_name: str, root: InsNode,
                 tolerated: bool = False):
        self.model_name = model_name
        self.root = root
        self.tolerated = tolerated

    @property
    def raw(self) -> bytes:
        return self.root.raw

    def iter_puzzles(self) -> Iterator[Tuple[RuleSignature, bytes]]:
        return self.root.iter_puzzles()

    def iter_leaves(self) -> Iterator[InsNode]:
        return self.root.iter_leaves()

    def find(self, name: str) -> Optional[InsNode]:
        return self.root.find(name)

    def leaf_values(self) -> dict:
        return self.root.leaf_values()

    def pretty(self) -> str:
        return f"InsTree<{self.model_name}>\n{self.root.pretty(1)}"
