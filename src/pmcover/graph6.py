"""graph6 encoding and decoding (simple graphs, one per line).

Bit-exact with the published format: optional ``>>graph6<<`` header, 63-offset
printable bytes, upper-triangle column-major bit order.  Only simple graphs
are representable, so multigraphs refuse to encode.

In that order the pair (i, j) with i < j is bit j(j-1)/2 + i of one bit
string, so each edge's bit is set or read directly and both directions take
time linear in the line length.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import MalformedGraph6, NotSimple
from .graphs import CubicGraph

_HEADER = ">>graph6<<"
# each data character, '?'..'~', as the 6 bits it carries
_SIX_BITS = {63 + k: format(k, "06b") for k in range(64)}


def _decode_size(data: str) -> tuple[int, str]:
    if not data:
        raise MalformedGraph6("empty graph6 line")
    c = ord(data[0])
    if c != 126:
        return c - 63, data[1:]
    if len(data) >= 2 and ord(data[1]) != 126:
        if len(data) < 4:
            raise MalformedGraph6("truncated 3-byte size field")
        n = 0
        for ch in data[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        return n, data[4:]
    if len(data) < 8:
        raise MalformedGraph6("truncated 6-byte size field")
    n = 0
    for ch in data[2:8]:
        n = (n << 6) | (ord(ch) - 63)
    return n, data[8:]


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise MalformedGraph6(f"vertex count {n} too large for this encoder")


def _body(text: str) -> str:
    """A graph6 line stripped of whitespace and of the optional header."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):].strip()
    return s


def _illegal_char(s: str) -> str | None:
    """The first character graph6 never uses (outside '?'..'~'), if any."""
    return next((ch for ch in s if not 63 <= ord(ch) <= 126), None)


def could_be_graph6(text: str) -> bool:
    """Whether the line uses only characters graph6 uses, header aside."""
    return _illegal_char(_body(text)) is None


def parse_graph6(text: str) -> CubicGraph:
    """Parse one graph6 line into a CubicGraph.

    Raises MalformedGraph6 for encoding problems and NotCubic when the
    encoded graph is not 3-regular.
    """
    s = _body(text)
    if not s:
        raise MalformedGraph6("empty graph6 line")
    ch = _illegal_char(s)
    if ch is not None:
        raise MalformedGraph6(f"illegal character {ch!r}")
    n, rest = _decode_size(s)
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(rest) != expected:
        raise MalformedGraph6(
            f"expected {expected} data bytes for n={n}, got {len(rest)}"
        )
    # column j holds pairs (0, j)..(j-1, j); the padding bits are never read
    bits = rest.translate(_SIX_BITS)
    edges = []
    for j in range(1, n):
        start = j * (j - 1) // 2
        i = bits.find("1", start, start + j)
        while i >= 0:
            edges.append((i - start, j))
            i = bits.find("1", i + 1, start + j)
    return CubicGraph(n, edges)


def to_graph6(g: CubicGraph) -> str:
    """Encode a simple cubic graph as one graph6 line (no header)."""
    if not g.is_simple():
        raise NotSimple("graph6 cannot encode parallel edges")
    n = g.n
    size = _encode_size(n)
    nbits = n * (n - 1) // 2
    bits = bytearray(b"0" * (nbits + (-nbits) % 6))
    for i, j in g.edges:  # i < j
        bits[j * (j - 1) // 2 + i] = 49  # "1"
    return size + "".join(
        chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6)
    )


def iter_graph6_file(path: str | Path) -> Iterator[str]:
    """Yield non-empty graph6 lines from a file.

    A non-ASCII byte is kept as a lone surrogate, so the line it is on fails
    ``parse_graph6`` as an illegal character instead of failing the read.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line
