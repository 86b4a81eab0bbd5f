"""The paper's six constructive maps: injections that grow a classified partition by one or two elements, keeping its class.

They prove the sequence properties, for example that the lonely sequence is
strictly increasing; criterion 7 of tests/test_acceptance.py checks them for n <= 7.
The package root does not import this module, so the CLI never loads it.
"""
from .partitions import Kind, Partition, classify, is_noncrossing


def _require_kind(p: Partition, kind: Kind, who: str) -> None:
    try:
        witness = classify(p)
    except ValueError:
        raise ValueError(f"{who} requires a noncrossing partition") from None
    found = Kind.LONELY if witness is None else Kind.MARRIAGEABLE
    if found is not kind:
        raise ValueError(f"{who} requires a {kind.value} partition, got {found.value}")


def grow_lonely(p: Partition) -> Partition:
    """Extend a lonely partition of [n] to a lonely partition of [n+1].

    The new element n+1 joins the block containing 1. On the empty partition
    the result is {{1}}, the only partition of [1]. Injective, and the
    partition {{1,...,n},{n+1}} is lonely but never produced, which is what
    makes the lonely sequence strictly increasing.
    """
    if p.n == 0:
        return Partition(1, ((1,),))
    _require_kind(p, Kind.LONELY, "grow_lonely")
    blocks = [b + (p.n + 1,) if b[0] == 1 else b for b in p.blocks]
    return Partition(p.n + 1, blocks)


def grow_marriageable(p: Partition) -> Partition:
    """Append the singleton {n+1} to a marriageable partition of [n]."""
    _require_kind(p, Kind.MARRIAGEABLE, "grow_marriageable")
    return Partition(p.n + 1, p.blocks + ((p.n + 1,),))


def add_singleton_pair(p: Partition) -> Partition:
    """Add singletons {n+1} and {n+2} to any noncrossing partition of [n].

    The two new top-level singletons are adjacent, so the result is always
    marriageable.
    """
    if not is_noncrossing(p):
        raise ValueError("add_singleton_pair requires a noncrossing partition")
    return Partition(p.n + 2, p.blocks + ((p.n + 1,), (p.n + 2,)))


def add_pair_block(p: Partition) -> Partition:
    """Add the pair block {n+1, n+2} to a marriageable partition of [n]."""
    _require_kind(p, Kind.MARRIAGEABLE, "add_pair_block")
    return Partition(p.n + 2, p.blocks + ((p.n + 1, p.n + 2),))


def absorb_into_first(p: Partition) -> Partition:
    """Join n+2 to the block containing 1 and add the singleton {n+1}.

    Requires a marriageable partition of [n] with n >= 1; the mergeable pair
    survives inside the stretched first block, so the result stays
    marriageable.
    """
    _require_kind(p, Kind.MARRIAGEABLE, "absorb_into_first")
    blocks = [b + (p.n + 2,) if b[0] == 1 else b for b in p.blocks]
    blocks.append((p.n + 1,))
    return Partition(p.n + 2, blocks)


def absorb_into_last(p: Partition) -> Partition:
    """Join n+1 to the block containing n and add the singleton {n+2}."""
    _require_kind(p, Kind.MARRIAGEABLE, "absorb_into_last")
    blocks = [b + (p.n + 1,) if p.n in b else b for b in p.blocks]
    blocks.append((p.n + 2,))
    return Partition(p.n + 2, blocks)
