"""Append-only colength cache.

Colength counts are the only expensive computation and are pure functions
of (canonical description, q), so they are memoized in a line-delimited
JSON file.  A hit requires the description hash, q, and engine version to
all match; bumping ENGINE_VERSION invalidates every old entry without
touching the file.  A record counts only when its line spells its hash
literally, in quotes, as a put writes it; one spelled with \\u escapes is
rejected, and its value is counted again.

The last valid record for a key wins, so a lookup reads the file newest
first and stops at the first valid record for its key.  A put appends in
place and reuses the lookups before it.

Beside the file lies a disposable index, <path>.idx.  It records a length
L, the 64 bytes before L, and the 8-digit prefix of every quoted
64-hex-digit token in [0, L): the prefix of every valid record's hash
there.  The index is valid while the file still holds those 64 bytes and
its size lies between L and L + 2 * _WINDOW.  Opening the cache with a
valid index reads the file from L on, the tail; a lookup reads the head
[0, L) only when the index lists its hash's prefix, once.  Without a valid
index, opening reads the whole file, and a file longer than 2 * _WINDOW
gets a new index up to its last line end.  An index that is stale all the
same (the file rewritten around its 64 bytes) can only make a lookup skip
records: the caller then recounts the exact value and appends it again,
so cached output equals uncached output.
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

# An index stays valid while the file grows by at most 2 * _WINDOW bytes
# past its L, so opening never reads more than that past the index.
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
    record is valid when its hash is a str that its line spells literally
    in quotes, its q an int >= 1 and its count an int >= 0 (a bool is
    neither)."""
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
                if (type(h) is str and f'"{h}"' in line and type(q) is int
                        and q >= 1 and type(count) is int and count >= 0):
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
        """Read the index, then the file from its L on when the index is
        valid, else the whole file, and forget every earlier read."""
        try:
            with open(self.path + ".idx", "rb", buffering=0) as fh:
                index = fh.read()
            length, mark = index[:index.find(b"\n")].split()
            length = int(length)
        except (OSError, ValueError):
            length = 0  # a missing, unreadable or garbled index
        self._index, self._base, tail = b"", 0, bytearray()
        try:
            with open(self.path, "rb", buffering=0) as fh:
                if 64 <= length <= fh.seek(0, 2) <= length + 2 * _WINDOW:
                    fh.seek(length - 64)
                    tail = bytearray(_read(fh))  # puts append to it in place
                    if tail[:64].hex().encode() == mark:
                        del tail[:64]
                        self._index, self._base = index, length
                if not self._base:
                    fh.seek(0)
                    tail = bytearray(_read(fh))
        except FileNotFoundError:
            pass  # a new cache, or one another process cleared
        self._tail = tail  # the file from _base on, plus this instance's puts
        self._head = None if self._base else b""  # [0, _base), once read
        self._found = None  # [hash, {q: count}, frontier] of the last lookup
        if not self._base and len(tail) > 2 * _WINDOW:
            self._write_index(tail[:tail.rfind(b"\n") + 1])

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

    def _write_index(self, head: bytes):
        """Index head through a temporary file, opened before the scan so
        that a directory where no index can be written costs none."""
        tmp = f"{self.path}.idx.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                prefixes = re.findall(rb'"([0-9a-f]{8})[0-9a-f]{56}"', head)
                prefixes.sort()
                fh.write(b"\n".join([b"%d %s" % (len(head), head[-64:].hex().encode()),
                                     *prefixes, b""]))
            os.replace(tmp, self.path + ".idx")
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass

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

        The file is read from its end in two buffers, each starting at a
        line start: the tail, then the head, which is read only now and
        only when the index lists h's prefix; otherwise the index vouches
        that the head holds no record of h.  A buffer's candidates are its
        lines holding "h", quotes included, which every record of h
        spells.  They are decoded from the last one back until a valid
        record for (h, q) turns up.  _found keeps, for the last hash
        looked up, the newest count of each q read so far and the file
        offset before which nothing has been read, so the next lookup of
        that hash resumes there; a put adds its own record."""
        found = self._found
        if found is None or found[0] != h:
            found = self._found = [h, {}, self._base + len(self._tail)]
        _, counts, f = found
        needle = b'"%s"' % h.encode("ascii")
        while q not in counts and f:
            if f > self._base:
                data, base = self._tail, self._base
            elif b"\n%s\n" % needle[1:9] in self._index:
                data, base = self._read_head(), 0
            else:
                f = 0  # the index vouches for [0, L)
                break
            stop, lines = f - base, []
            i = data.find(needle, 0, stop)
            while i >= 0:
                end = data.find(b"\n", i)
                if end < 0:
                    end = len(data)
                lines.append((data.rfind(b"\n", 0, i) + 1, end))
                i = data.find(needle, end, stop)
            for start, end in reversed(lines):
                for (g, r), count in _parse([data[start:end]])[0].items():
                    if g == h:
                        counts.setdefault(r, count)  # the newest wins
                if q in counts:
                    f = base + start
                    break
            else:
                f = base
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
