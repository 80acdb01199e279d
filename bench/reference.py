"""A fixed job that times the host, not viewdiv.

Its wall time defines one "reference second". The benchmark runs it as a
fresh process right after each timed ``analyze`` (and each set-up), and
reports those times divided by it: the host's speed on this VM drifts by
tens of percent over minutes, and both processes feel it alike. The job
mirrors what ``analyze`` spends its time on -- interpreter start, importing
numpy and scipy.special, parsing JSON lines into frozen records, and
building dict and set indexes over them -- but shares no code with viewdiv,
so no change to the program moves it.
"""

import json
from dataclasses import dataclass
from enum import Enum

import numpy  # noqa: F401  same import cost as viewdiv.cli
import scipy.special  # noqa: F401

RECORDS = 40_000
AUTHORS = 97


class Kind(str, Enum):
    ORIGINAL = "original"
    RETWEET = "retweet"


@dataclass(frozen=True)
class Record:
    id: str
    author_id: str
    kind: Kind
    timestamp: int


def main() -> int:
    lines = [
        json.dumps(
            {"id": f"t{i:08d}", "author_id": f"s{i % AUTHORS:04d}",
             "kind": "retweet" if i % 3 == 0 else "original", "timestamp": i},
            separators=(",", ":"),
        )
        for i in range(RECORDS)
    ]
    records = []
    for line in lines:
        obj = json.loads(line)
        records.append(Record(obj["id"], obj["author_id"], Kind(obj["kind"]), obj["timestamp"]))
    by_author: dict[str, set[str]] = {}
    for r in records:
        by_author.setdefault(r.author_id, set()).add(r.id)
    authors = sorted(by_author)
    reached = 0
    for k in range(60):
        union: set[str] = set()
        for a in authors[k % 40: k % 40 + 30]:
            union |= by_author[a]
        reached += len(union)
    return 0 if reached else 1


if __name__ == "__main__":
    raise SystemExit(main())
