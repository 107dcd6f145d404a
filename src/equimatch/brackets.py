"""The bracket scan of a subset of [n]: its unmatched openers and its successor.

A bitset `members` of [n] (bit i-1 for element i) is read as a bracket
word: position i is a closer ")" iff i is a member, else an opener "(".
The Boolean suite's chains (`boollattice.symmetric_chains`) add a start's
unmatched openers from left to right, and the f scan's subset injection
(`transfer.krattenthaler_f`) adds the leftmost one.  This module imports
nothing, so a graph with a nontrivial group compiles the scan alone and
not the Boolean suite.
"""

from __future__ import annotations


def unmatched_openers(n: int, members: int) -> int:
    """The unmatched openers of the bracket word of the bitset `members` of [n], as a bitset.

    Each closer matches the nearest unmatched opener to its left, the top
    of the opener stack.  Only the closers are visited: the openers between
    one closer and the next join the stack together.
    """
    openers = 0
    seen = 0  # the positions up to the last closer visited
    rest = members
    while rest:
        bit = rest & -rest
        rest ^= bit
        openers |= (bit - 1) ^ seen
        seen = (bit << 1) - 1
        if openers:
            openers ^= 1 << openers.bit_length() - 1
    return openers | ((1 << n) - 1) ^ seen


def bracket_successor(n: int, members: int) -> int | None:
    """Add the leftmost unmatched opener of the bracket word of `members`; None if there is none."""
    openers = unmatched_openers(n, members)
    if not openers:
        return None
    return members | openers & -openers
