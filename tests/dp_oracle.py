"""Independent brute-force references for the chart decoder tests: enumerate
every contiguous segmentation and every candidate assignment, rescore each
rebuilt sentence as a whole, and keep the best."""

import itertools

from phrasefix import find_best_subs


def segmentations(n):
    """All ways to cut positions 0..n-1 into contiguous segments."""
    for mask in range(1 << (n - 1)):
        segs = []
        start = 0
        for pos in range(n - 1):
            if mask >> pos & 1:
                segs.append((start, pos))
                start = pos + 1
        segs.append((start, n - 1))
        yield segs


def enumeration_cost(tokens, candidates):
    total = 0
    for segs in segmentations(len(tokens)):
        product = 1
        for seg in segs:
            product *= max(1, len(candidates[seg]))
        total += product
    return total


def exhaustive_best_score(tokens, index, lm, lexicon, config, candidates=None):
    if candidates is None:
        candidates = find_best_subs(index, lm, lexicon, tokens, config)
    memo = {}
    best = None
    for segs in segmentations(len(tokens)):
        lists = [candidates[seg] for seg in segs]
        if any(not lst for lst in lists):
            continue
        for choice in itertools.product(*lists):
            seq = tuple(w for cand in choice for w in cand)
            score = memo.get(seq)
            if score is None:
                score = lm.score_sequence(seq)
                memo[seq] = score
            if best is None or score > best:
                best = score
    return best
