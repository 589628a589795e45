"""Fixtures shared by the test modules."""

import pytest

from goldengasket import attractor


@pytest.fixture
def swept_pairs(monkeypatch):
    """A list of each (hole, region) pair the hole sweep decides from here
    on: at the root each candidate's ``hole_meets_region`` call, as (hole
    word, 0, region word), and below it each child ``attractor._descend``
    compares, as (hole index, level, region index), the level counted by
    the calls."""
    pairs = []
    levels = []
    meets, descend = attractor.hole_meets_region, attractor._descend

    def root(hole, region):
        pairs.append((hole.word, 0, region.word))
        return meets(hole, region)

    def level(kept, made, low, side, ups):
        levels.append(made)
        pairs.extend((h, len(levels), c)
                     for h, at in kept for c in range(made[at], made[at + 1]))
        return descend(kept, made, low, side, ups)

    monkeypatch.setattr(attractor, "hole_meets_region", root)
    monkeypatch.setattr(attractor, "_descend", level)
    return pairs
