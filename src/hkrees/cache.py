"""Append-only colength cache.

Colength counts are the only expensive computation and are pure functions
of (canonical description, q), so they are memoized in a line-delimited
JSON file.  A hit requires the description hash, q, and engine version to
all match; bumping ENGINE_VERSION invalidates every old entry without
touching the file.

Opening the cache reads only the file's tail, its last 32 KiB or more
from a line start; the first lookup that gets past the tail reads the
rest, the head, once.  The last valid record for a key wins, so a lookup
reads the file newest first and stops at the first valid record for its
key: a hit on a recent record decodes a line or two near the end and
never reads the head, and a miss reads every line that can hold its hash
once.  A put appends in place and reuses the lookups before it.

A miss need not read the head: beside the file lies a disposable index,
<path>.idx, written from the head by the first miss that reads the head
and finds no valid index.  It records the head's length L, the 64 bytes
before L, and the 8-digit prefix of every quoted 64-hex-digit token in
the head; as the head holds no backslash (else no index is written), no
record of a hash whose prefix is missing lies before L.  The index is
valid while the file still holds those 64 bytes before L and L lies in
the 2 * _WINDOW bytes before the tail; then a miss whose prefix the index
lacks reads only the gap from L to the tail.  Any other miss reads the
head as before, and only a missing or invalid index is rewritten.  An
index that is stale all the same (the file rewritten around its 64
bytes) can only make a lookup skip records: the caller then recounts the
exact value and appends it again, so cached output equals uncached
output.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

ENGINE_VERSION = "1"

# raw_decode skips json.loads' argument checks, which cost about a quarter
# of the load time of a large cache; _parse checks the end offset itself.
_decode = json.JSONDecoder().raw_decode

# The tail, a lookup's first window, holds at least this many bytes from
# the end of the file.  CPython's bytes.find uses its faster two-way search
# for a 64-byte needle only in 30,000 bytes or more.
_WINDOW = 32768


def _key(description: str) -> str:
    return hashlib.sha256(description.encode("utf-8")).hexdigest()


def _read(fh, size: int = -1) -> bytes:
    """The next size bytes of fh (all of them by default), every \\r made a
    line end: a text-mode read also ends lines at \\r, and the blank line
    this leaves inside \\r\\n is skipped like any other."""
    return fh.read(size).replace(b"\r", b"\n")


def _parse(lines) -> tuple[dict[tuple[str, int], int], int]:
    """The valid records among byte lines, the last one winning for each
    (hash, q), and the number of torn, malformed or non-UTF-8 lines.  A
    record is valid when its hash is a str, its q an int >= 1 and its
    count an int >= 0 (a bool is neither)."""
    entries, rejected = {}, 0
    for line in lines:
        try:
            line = line.decode("utf-8").strip()
            if not line:
                continue
            rec, end = _decode(line)  # a torn line fails here
            if end == len(line):
                if rec.get("version") != ENGINE_VERSION:
                    continue  # written by another engine version
                h, q, count = rec["hash"], rec["q"], rec["count"]
                if (type(h) is str and type(q) is int and q >= 1
                        and type(count) is int and count >= 0):
                    entries[(h, q)] = count
                    continue
        except (ValueError, AttributeError, KeyError, TypeError):
            pass  # UnicodeDecodeError is a ValueError
        rejected += 1
    return entries, rejected


class ColengthCache:
    def __init__(self, path: str):
        self.path = path
        self._load()

    def _load(self):
        """Read the tail, the last _WINDOW bytes or more from a line start,
        and forget every earlier read.  The last 2 * _WINDOW bytes are
        read, and the tail starts at the last line start in their first
        half; when that half holds no line end, the tail is the whole file."""
        tail, start, cut = bytearray(), 0, 0
        try:
            with open(self.path, "rb", buffering=0) as fh:
                start = max(fh.seek(0, 2) - 2 * _WINDOW, 0)
                fh.seek(start)
                tail = bytearray(_read(fh))  # puts append to it in place
                cut = start and tail.rfind(b"\n", 0, len(tail) - _WINDOW) + 1
                if start and not cut:  # a line longer than _WINDOW
                    fh.seek(0)
                    tail[:0] = _read(fh, start)
                    start = 0
        except FileNotFoundError:
            pass  # a new cache, or one another process cleared
        del tail[:cut]
        self._tail = tail  # the file from _base on, plus this instance's puts
        self._base = start + cut  # the file offset where the tail starts
        self._head = None  # the file before _base, once a scan has read it
        self._index = None  # _read_index(), once a lookup has reached the head
        self._found = None  # [hash, {q: count}, frontier] of the last lookup

    def _read_head(self) -> bytes:
        """The file before the tail, read the first time a scan reaches it.
        A file removed since _load has an empty head, and one replaced
        since gives its first _base bytes, so a lookup finds only records
        that one of the two files holds."""
        if self._head is None:
            try:
                with open(self.path, "rb", buffering=0) as fh:
                    self._head = _read(fh, self._base)
            except FileNotFoundError:
                self._head = b""
        return self._head

    def _read_index(self):
        """(the file from L to _base, L, the index) when the index is
        valid, else ()."""
        try:
            with open(self.path + ".idx", "rb", buffering=0) as fh:
                index = fh.read()
            length, mark = index[:index.find(b"\n")].split()
            length = int(length)
            if 64 <= length <= self._base <= length + 2 * _WINDOW:
                with open(self.path, "rb", buffering=0) as fh:
                    fh.seek(length - 64)
                    gap = _read(fh, self._base - length + 64)
                if gap[:64].hex().encode() == mark:
                    return gap[64:], length, index
        except (OSError, ValueError):
            pass  # a missing, unreadable or garbled index
        return ()

    def _write_index(self, head: bytes):
        """Index a head of 64 bytes or more that ends a line and holds no
        backslash, through a temporary file."""
        if len(head) < 64 or not head.endswith(b"\n") or b"\\" in head:
            return
        prefixes = re.findall(rb'"([0-9a-f]{8})[0-9a-f]{56}"', head)
        prefixes.sort()
        tmp = f"{self.path}.idx.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(b"\n".join([b"%d %s" % (len(head), head[-64:].hex().encode()),
                                     *prefixes, b""]))
            os.replace(tmp, self.path + ".idx")
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass

    def _before_tail(self, h: str) -> tuple[bytes, int]:
        """(data, base): the file from base to _base, which holds every
        record of h before _base.  That is the gap from the index's L
        when the index is valid and lacks h's prefix, else the head."""
        if self._index is None:
            self._index = self._read_index()
            if not self._index:
                self._write_index(self._read_head())
        if self._index and b"\n%s\n" % h[:8].encode("ascii") not in self._index[2]:
            return self._index[:2]
        return self._read_head(), 0

    def _scan(self):
        """Every valid record and the rejected-line count, from a full scan."""
        return _parse(self._read_head().splitlines() + self._tail.splitlines())

    @property
    def _entries(self) -> dict[tuple[str, int], int]:
        """Every valid record, from a full scan."""
        return self._scan()[0]

    @property
    def rejected(self) -> int:
        """Torn, malformed and non-UTF-8 lines, from a full scan."""
        return self._scan()[1]

    def _lookup(self, h: str, q: int) -> int | None:
        """The count of the newest valid record for (h, q), or None.

        The file is read from its end in two windows, each a buffer that
        starts at a line start: the tail, then the head, which is read
        only now.  A window's candidates are its lines holding h or a
        backslash; every record with hash h is among them, because a JSON
        string spells a hex digit either literally or as a \\u escape.
        They are decoded from the last one back until a valid record for
        (h, q) turns up.  _found keeps, for the last hash looked up, the
        newest count of each q read so far and the file offset before
        which nothing has been read, so the next lookup of that hash
        resumes there; a put adds its own record.  In place of the head,
        _before_tail may give the gap from the index's L."""
        found = self._found
        if found is None or found[0] != h:
            found = self._found = [h, {}, self._base + len(self._tail)]
        _, counts, f = found
        while q not in counts and f:
            if f > self._base:
                data, base = self._tail, self._base
            else:
                data, base = self._before_tail(h)
            stop, lines = f - base, {}
            for needle in (h.encode("ascii"), b"\\"):
                i = data.find(needle, 0, stop)
                while i >= 0:
                    start = data.rfind(b"\n", 0, i) + 1
                    end = data.find(b"\n", i)
                    if end < 0:
                        end = len(data)
                    lines[start] = end
                    i = data.find(needle, end, stop)
            for start in sorted(lines, reverse=True):
                for (g, r), count in _parse([data[start:lines[start]]])[0].items():
                    if g == h:
                        counts.setdefault(r, count)  # the newest wins
                if q in counts:
                    f = base + start
                    break
            else:
                f = base if data is self._tail else 0  # the index vouches for [0, L)
        found[2] = f
        return counts.get(q)

    def get(self, description: str, q: int) -> int | None:
        return self._lookup(_key(description), q)

    def put(self, description: str, q: int, count: int):
        h = _key(description)
        if self._lookup(h, q) is not None:
            return  # a lookup returns None only after reading the whole file
        rec = {
            "hash": h,
            "q": q,
            "count": count,
            "version": ENGINE_VERSION,
            "description": description,
        }
        line = json.dumps(rec, sort_keys=True).encode("utf-8") + b"\n"
        if self._tail and not self._tail.endswith(b"\n"):  # end a torn last line
            line = b"\n" + line
        try:
            fh = open(self.path, "ab")
        except FileNotFoundError:  # the first put into a new directory
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            fh = open(self.path, "ab")
        with fh:
            fh.write(line)
        self._tail += line
        self._found[1][q] = count  # as a new lookup would read the appended line

    def entries(self) -> list[dict]:
        """Current valid entries, for inspection."""
        return [
            {"hash": h, "q": q, "count": c, "version": ENGINE_VERSION}
            for (h, q), c in sorted(self._entries.items())
        ]

    def clear(self):
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass
        try:
            os.remove(self.path + ".idx")
        except OSError:
            pass  # a missing index, or one that cannot be removed
        self._load()


def cached_counter(preset, cache: ColengthCache):
    """Wrap a preset's counter with cache lookups keyed on its description."""
    def counter(q: int) -> int:
        hit = cache.get(preset.description, q)
        if hit is not None:
            return hit
        count = preset.counter(q)
        cache.put(preset.description, q, count)
        return count

    return counter
