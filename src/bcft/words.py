"""Object words and fusion-tree bases.

An object is a tensor word of factors; each factor is a formal direct sum of
simple sectors with multiplicity spaces, stored as a sorted tuple of
``(sector, multiplicity)`` pairs.  The empty word is the unit object.

The fusion-tree basis of ``Hom(c, W)`` is the left-bracketed path basis: a
tree picks one summand slot per factor and the sequence of intermediate
charges after each fusion step.  Ordering is deterministic (DFS in slot
order, then channel index order), which every matrix convention downstream
relies on.
"""

from __future__ import annotations

from .errors import StructuralError
from .rings import FusionRing

__all__ = ["Word", "simple_word", "sum_word", "trees", "hom_dim"]


def _normalize_factor(factor) -> tuple[tuple[int, int], ...]:
    entries = []
    for sector, mult in factor:
        sector, mult = int(sector), int(mult)
        if mult < 1:
            raise StructuralError("factor multiplicities must be >= 1")
        entries.append((sector, mult))
    entries.sort()
    if len({s for s, _ in entries}) != len(entries):
        raise StructuralError("repeated sector in one factor; merge multiplicities")
    return tuple(entries)


class Word:
    """Tensor word of direct-sum factors. Hashable and immutable."""

    __slots__ = ("factors", "_slots")

    def __init__(self, factors=()):
        self.factors = tuple(_normalize_factor(f) for f in factors)
        # flat slot list per factor: one (sector, copy) entry per summand copy
        self._slots = tuple(
            tuple((s, m) for s, mult in f for m in range(mult)) for f in self.factors
        )

    def __len__(self):
        return len(self.factors)

    def __add__(self, other: "Word") -> "Word":
        w = Word.__new__(Word)
        w.factors = self.factors + other.factors
        w._slots = self._slots + other._slots
        return w

    def __eq__(self, other):
        return isinstance(other, Word) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"Word{self.factors}"

    def slots(self, i: int):
        """Summand slots ``(sector, copy)`` of factor ``i``."""
        return self._slots[i]


def simple_word(*sectors: int) -> Word:
    """Word of simple factors, one per sector index."""
    return Word([((int(s), 1),) for s in sectors])


def sum_word(multiplicities) -> Word:
    """One-factor word for the direct sum with the given multiplicity vector."""
    factor = tuple((s, int(m)) for s, m in enumerate(multiplicities) if int(m) > 0)
    if not factor:
        raise StructuralError("direct sum must have at least one summand")
    return Word([factor])


def trees(ring: FusionRing, word: Word, c: int):
    """Fusion trees of ``Hom(c, word)``, memoized on the ring.

    A tree is a tuple of ``(slot_index, charge)`` pairs, one per factor;
    ``charge`` is the intermediate after fusing factors ``0..i`` and the last
    charge equals ``c``.  The empty word supports only the vacuum.
    """
    key = (word, c)
    hit = ring.trees_memo.get(key)
    if hit is None:
        hit = ring.trees_memo[key] = _enumerate_trees(ring, word, c)
    return hit


def _enumerate_trees(ring: FusionRing, word: Word, c: int):
    n = len(word)
    if n == 0:
        return ((),) if c == 0 else ()
    out = []

    def extend(pos, charge, prefix):
        if pos == n:
            if charge == c:
                out.append(tuple(prefix))
            return
        for slot_idx, (sector, _copy) in enumerate(word.slots(pos)):
            if pos == 0:
                prefix.append((slot_idx, sector))
                extend(1, sector, prefix)
                prefix.pop()
            else:
                for nxt in ring.channels(charge, sector):
                    prefix.append((slot_idx, nxt))
                    extend(pos + 1, nxt, prefix)
                    prefix.pop()

    extend(0, 0, [])
    return tuple(out)


def hom_dim(ring: FusionRing, word: Word, c: int) -> int:
    return len(trees(ring, word, c))
