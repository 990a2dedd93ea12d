"""Seeded benchmark inputs and the answer oracle.

The benchmark generates its own relations from ``--seed`` so that the
program under test receives only data, never the generator: a change to
``repro.data`` cannot change what is measured.  Shapes follow the
repository's ``uniform_workload``/``case_study`` recipes: uniform
elements over a fixed domain, set cardinalities drawn uniformly from a
``[lo, hi]`` band, and ``planted_pairs`` R sets rewritten as subsets of
distinct S sets so every join has results to verify.

The oracle is an inverted index over S (element -> bitmask of S tids),
built before anything is timed.  Joins, probes and creates are checked
against it after each timed call.
"""

from __future__ import annotations

import random


def _relation(rng: random.Random, spec: dict) -> list[tuple[int, frozenset]]:
    lo, hi = spec["card"]
    domain = range(spec["domain"])
    return [
        (tid, frozenset(rng.sample(domain, rng.randint(lo, hi))))
        for tid in range(spec["size"])
    ]


def join_pair(seed: int, r_spec: dict, s_spec: dict, planted: int):
    """``(R, S)`` as lists of ``(tid, frozenset)`` rows in tid order."""
    rng = random.Random(seed)
    r_rows = _relation(random.Random(rng.randrange(2**31)), r_spec)
    s_rows = _relation(random.Random(rng.randrange(2**31)), s_spec)
    hosts = rng.sample(range(len(s_rows)), planted)
    for r_tid, host in enumerate(hosts):
        host_set = sorted(s_rows[host][1])
        want = min(len(r_rows[r_tid][1]), len(host_set))
        r_rows[r_tid] = (r_tid, frozenset(rng.sample(host_set, max(1, want))))
    return r_rows, s_rows


def probe_sets(seed: int, s_rows, elements: int, count: int) -> list[list[int]]:
    """Probe sets drawn from inside random S sets, so each matches at least
    one stored tuple."""
    rng = random.Random(seed)
    out = []
    for __ in range(count):
        __, host = s_rows[rng.randrange(len(s_rows))]
        out.append(sorted(rng.sample(sorted(host), elements)))
    return out


def create_rows(seed: int, spec: dict, count: int):
    """``count`` small relations for create/drop traffic."""
    rng = random.Random(seed)
    shape = {"size": spec["tuples"], "card": [spec["theta"]] * 2,
             "domain": spec["domain"]}
    return [_relation(rng, shape) for __ in range(count)]


def user_bytes(rows) -> int:
    """The user-data size of rows: 8 bytes per tid, 4 per element."""
    return sum(8 + 4 * len(elements) for __, elements in rows)


class Oracle:
    """Exact containment answers from an inverted index over S."""

    def __init__(self, s_rows):
        self._all = (1 << len(s_rows)) - 1
        postings: dict[int, int] = {}
        for tid, elements in s_rows:
            bit = 1 << tid
            for element in elements:
                postings[element] = postings.get(element, 0) | bit
        self._postings = postings

    def supersets(self, elements) -> list[int]:
        """Tids of S sets containing ``elements``, ascending."""
        mask = self._all
        for element in elements:
            mask &= self._postings.get(element, 0)
            if not mask:
                return []
        tids = []
        while mask:
            low = mask & -mask
            tids.append(low.bit_length() - 1)
            mask ^= low
        return tids

    def join(self, r_rows) -> set[tuple[int, int]]:
        return {
            (r_tid, s_tid)
            for r_tid, elements in r_rows
            for s_tid in self.supersets(elements)
        }
