"""Append-only colength cache.

Colength counts are the only expensive computation and are pure functions
of (canonical description, q), so they are memoized in a line-delimited
JSON file.  A hit requires the description hash, q, and engine version to
all match; bumping ENGINE_VERSION invalidates every old entry without
touching the file.
"""

from __future__ import annotations

import hashlib
import json
import os

ENGINE_VERSION = "1"

# raw_decode skips json.loads' argument checks, which cost about a quarter
# of the load time of a large cache; _load checks the end offset itself.
_decode = json.JSONDecoder().raw_decode


def _key(description: str) -> str:
    return hashlib.sha256(description.encode("utf-8")).hexdigest()


class ColengthCache:
    def __init__(self, path: str):
        self.path = path
        self._entries: dict[tuple[str, int], int] = {}
        self.rejected = 0  # torn or malformed lines skipped by _load
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec, end = _decode(line)  # a torn line fails here
                    if end == len(line):
                        if rec.get("version") != ENGINE_VERSION:
                            continue  # written by another engine version
                        count = rec["count"]
                        if type(count) is int:
                            self._entries[(rec["hash"], rec["q"])] = count
                            continue
                except (ValueError, AttributeError, KeyError, TypeError):
                    pass
                self.rejected += 1

    def get(self, description: str, q: int) -> int | None:
        return self._entries.get((_key(description), q))

    def put(self, description: str, q: int, count: int):
        h = _key(description)
        if (h, q) in self._entries:
            return
        self._entries[(h, q)] = count
        rec = {
            "hash": h,
            "q": q,
            "count": count,
            "version": ENGINE_VERSION,
            "description": description,
        }
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def entries(self) -> list[dict]:
        """Current valid entries, for inspection."""
        return [
            {"hash": h, "q": q, "count": c, "version": ENGINE_VERSION}
            for (h, q), c in sorted(self._entries.items())
        ]

    def clear(self):
        self._entries.clear()
        if os.path.exists(self.path):
            os.remove(self.path)


def cached_counter(preset, cache: "ColengthCache | None"):
    """Wrap a preset's counter with cache lookups keyed on its description."""
    if cache is None:
        return preset.counter

    def counter(q: int) -> int:
        hit = cache.get(preset.description, q)
        if hit is not None:
            return hit
        count = preset.counter(q)
        cache.put(preset.description, q, count)
        return count

    return counter
