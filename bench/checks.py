"""Output checks that do not go through the code under test.

Membership is decided by a parity-check matrix derived here, with numpy, from
the code's generator rows, so a fault in ``pwe.codes.contains`` (which the
benchmark times) cannot vouch for itself.  Every check returns a count of
failures; the benchmark adds them to the run's ``failed`` total.
"""

from __future__ import annotations

import numpy as np

GOLAY_24_12_WE = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
QR_47_24_PARTIAL_WE = {11: 4324, 12: 12972, 15: 178365}


def words_to_bits(values, n: int) -> np.ndarray:
    """(m, n) uint8 array, bit i of each integer in column i."""
    nbytes = (n + 7) // 8
    buf = b"".join(int(v).to_bytes(nbytes, "little") for v in values)
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n]


def parity_check_matrix(n: int, generator_rows) -> np.ndarray:
    """(n-k) x n parity-check matrix of the row space of the generator rows."""
    G = words_to_bits(list(generator_rows), n).copy()
    pivots = []
    r = 0
    for col in range(n):
        hits = np.nonzero(G[r:, col])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        G[[r, i]] = G[[i, r]]
        others = np.nonzero(G[:, col])[0]
        G[others[others != r]] ^= G[r]
        pivots.append(col)
        r += 1
        if r == G.shape[0]:
            break
    G = G[:r]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    # A codeword is the sum of its pivot coordinates times the RREF rows, so
    # each free coordinate equals the XOR of the pivot coordinates whose row
    # has a one in that column.
    H = np.zeros((len(free), n), dtype=np.uint8)
    for j, f in enumerate(free):
        H[j, f] = 1
        H[j, pivots] = G[:, f]
    if ((G.astype(np.int64) @ H.T.astype(np.int64)) & 1).any():
        raise RuntimeError("derived parity-check matrix does not annihilate the generator")
    return H


class Checker:
    """Vectorised membership-and-weight check for one code."""

    def __init__(self, n: int, generator_rows):
        self.n = n
        # Syndrome sums are at most n, exact in float32, which lets BLAS do
        # the matrix product.
        self._Ht = parity_check_matrix(n, generator_rows).T.astype(np.float32)

    def bad_words(self, values, weight=None) -> int:
        """Number of words that are not codewords, or not of the stated weight."""
        values = list(values)
        if not values:
            return 0
        bits = words_to_bits(values, self.n)
        syndrome = (bits.astype(np.float32) @ self._Ht).astype(np.int64) & 1
        bad = syndrome.any(axis=1)
        if weight is not None:
            bad |= bits.sum(axis=1, dtype=np.int64) != weight
        return int(bad.sum())

    def bad_lists(self, lists: dict) -> tuple[int, int]:
        """(words checked, failures) over a {w: iterable of ints} mapping."""
        checked = failed = 0
        for w, values in lists.items():
            values = list(values)
            checked += len(values)
            failed += self.bad_words(values, w)
        return checked, failed


def golden_mismatches(found: dict, golden: dict, complete: bool) -> int:
    """Entries of a weight distribution that disagree with published values.

    With ``complete`` the distribution must have no other nonzero entries."""
    bad = sum(1 for w, a in golden.items() if found.get(w, 0) != a)
    if complete:
        bad += sum(1 for w, a in found.items() if a and w not in golden)
    return bad


def self_test(checker: Checker, generator_rows) -> list[str]:
    """Show that the checker counts planted faults; returns the problems seen.

    A valid codeword must pass; the same word with one bit flipped must fail
    (stated weight set to the flipped word's, so only membership can catch
    it); a list holding a codeword under the wrong weight must fail."""
    rows = list(generator_rows)
    word = rows[0] ^ rows[-1]
    w = word.bit_count()
    flipped = word ^ 1
    problems = []
    if checker.bad_words([word], w) != 0:
        problems.append("valid codeword rejected")
    if checker.bad_words([flipped], flipped.bit_count()) != 1:
        problems.append("word with one bit flipped not counted as a failure")
    if checker.bad_lists({w + 1: [word]}) != (1, 1):
        problems.append("wrong-weight word in a list not counted as a failure")
    return problems
