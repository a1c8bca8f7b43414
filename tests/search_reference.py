"""The reference prefix search that the search tests compare against."""

from numsem.core import _add_generator


def two_push_search(mask, frobenius, last, avoid=0):
    """The prefix search that pushes both branches of every node, gap on top.

    It decides every position in [1, last], so its leaves are closed on
    [0, F], in any range.
    """
    stop = 1 << frobenius | avoid
    stack = [(mask, 1)]
    while stack:
        mask, k = stack.pop()
        free = ~mask >> k
        k += (free & -free).bit_length() - 1
        if k > last:
            yield mask
            continue
        member = _add_generator(mask, k, frobenius)
        if not member & stop:
            stack.append((member, k + 1))
        stack.append((mask, k + 1))
