"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same events, and :func:`digest` fingerprints them so a run can prove it.
The program under test only ever sees the generated events.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, Tuple

from repro.events import Event
from repro.streams import Retraction, Update
from repro.workloads.stocks import StockMarketConfig, generate_stock_stream


def keyed_stream(
    seed: int,
    events: int,
    keys: int,
    type_weights: Sequence[Tuple[str, float]],
    gap: float,
) -> List[Event]:
    """``events`` events with a join key ``k`` and a value ``v``.

    Types are drawn with the given (skewed) weights, keys uniformly
    from ``range(keys)``, and inter-arrival gaps exponentially with mean
    ``gap`` stream seconds.  Shared by every keyed workload so that
    ``keyed`` is exactly the single-threaded baseline of
    ``keyed-service`` on the same seed.
    """
    rng = random.Random(f"keyed:{seed}")
    names = [name for name, _ in type_weights]
    weights = [weight for _, weight in type_weights]
    out, t = [], 0.0
    for seq in range(events):
        t += rng.expovariate(1.0 / gap)
        out.append(
            Event(
                rng.choices(names, weights)[0],
                t,
                {"k": rng.randrange(keys), "v": round(rng.random(), 6)},
                seq=seq,
            )
        )
    return out


def stock_stream(
    seed: int, symbols: Sequence[Tuple[str, float]], duration: float
) -> List[Event]:
    """The paper's synthetic tick stream over a fixed skewed rate profile.

    Each symbol is drawn by :func:`generate_stock_stream` at its own
    fixed rate (events/s); the seed moves only arrivals and price
    walks, so every seed offers the planner the same rate skew.
    """
    events: List[Event] = []
    for index, (name, rate) in enumerate(symbols):
        config = StockMarketConfig(
            symbols=1,
            symbol_names=[name],
            rate_low=rate,
            rate_high=rate,
            duration=duration,
            seed=seed * 1000 + index,
        )
        events.extend(generate_stock_stream(config))
    events.sort(key=lambda event: event.timestamp)
    return events


def shuffle_within(
    events: Sequence[Event], seed: int, max_delay: float
) -> List[Event]:
    """Deliver ``events`` out of order, each delayed by less than
    ``max_delay`` stream seconds (so no arrival is late)."""
    rng = random.Random(f"shuffle:{seed}")
    jittered = [
        (event.timestamp + rng.uniform(0.0, max_delay * 0.95), i)
        for i, event in enumerate(events)
    ]
    return [events[i] for _, i in sorted(jittered)]


#: The kinds of correction, in the order they repeat: (delta, whether
#: it addresses an event of the negated type).  A fixed cycle gives the
#: same share of each kind on every seed.
CORRECTION_CYCLE = (
    ("retract", False),
    ("update", False),
    ("retract", True),
    ("update", True),
)


def corrections(
    arrivals: Sequence[Event],
    seed: int,
    every: int,
    keys: int,
    negated_type: str,
    max_delay: float,
) -> list:
    """Interleave one correction per ``every`` arrivals.

    Correction ``j`` is of kind ``CORRECTION_CYCLE[j % 4]`` and
    addresses a random event of the matching type among the last
    ``every`` arrivals (by uid, the arrival order) that a reorder buffer
    of ``max_delay`` has already released, so every correction reaches
    the engine and each seed replays equally often.  Updates draw a new
    key and value.  No uid is corrected twice.  Returns the mixed list.
    """
    rng = random.Random(f"corrections:{seed}")
    items: list = []
    touched: set = set()
    made = 0
    latest = float("-inf")
    for uid, event in enumerate(arrivals):
        items.append(event)
        latest = max(latest, event.timestamp)
        if uid == 0 or uid % every:
            continue
        kind, negated = CORRECTION_CYCLE[made % len(CORRECTION_CYCLE)]
        watermark = latest - max_delay
        pool = [
            i
            for i in range(max(0, uid - every), uid + 1)
            if i not in touched
            and arrivals[i].timestamp < watermark
            and (arrivals[i].type == negated_type) == negated
        ]
        if not pool:
            continue
        target = rng.choice(pool)
        touched.add(target)
        made += 1
        if kind == "retract":
            items.append(Retraction(target))
        else:
            items.append(
                Update(
                    target,
                    {"k": rng.randrange(keys), "v": round(rng.random(), 6)},
                )
            )
    return items


def corrected(items: Sequence) -> List[Event]:
    """The stream the corrections describe, in timestamp order: every
    event minus the retracted ones, updates applied."""
    events: dict = {}
    uid = 0
    for item in items:
        if isinstance(item, Retraction):
            del events[item.seq]
        elif isinstance(item, Update):
            old = events[item.seq]
            events[item.seq] = Event(old.type, old.timestamp, dict(item.payload))
        else:
            events[uid] = item
            uid += 1
    ordered = sorted(events.items(), key=lambda kv: (kv[1].timestamp, kv[0]))
    return [event for _, event in ordered]


def digest(items: Sequence) -> str:
    """Stable fingerprint of a generated input (events and deltas)."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, Event):
            h.update(
                repr((item.type, item.timestamp, sorted(item.attributes.items()))).encode()
            )
        else:
            h.update(repr(item).encode())
    return h.hexdigest()[:16]
