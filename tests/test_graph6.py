import random
import time

import pytest

from pmcover.errors import MalformedGraph6, NotCubic, NotSimple
from pmcover.generators import k4, petersen, prism, random_bridgeless_cubic, theta
from pmcover.graph6 import (
    _body,
    _decode_size,
    _encode_size,
    _illegal_char,
    parse_graph6,
    to_graph6,
)
from pmcover.graphs import CubicGraph


def reference_decode(line):
    """Independent decoder written directly from the format definition."""
    data = [ord(c) - 63 for c in line.strip()]
    if data[0] != 63:
        n, body = data[0], data[1:]
    elif data[1] != 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise NotImplementedError
    bitstring = "".join(format(x, "06b") for x in body)
    adj = [[0] * n for _ in range(n)]
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitstring[pos] == "1":
                adj[i][j] = adj[j][i] = 1
            pos += 1
    return n, adj


def bitwise_parse_graph6(text):
    """The bit-by-bit decoder: one shift of a growing integer per character."""
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
    bits = 0
    for ch in rest:
        bits = (bits << 6) | (ord(ch) - 63)
    bits >>= len(rest) * 6 - nbits  # drop padding
    edges = []
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                edges.append((i, j))
    return CubicGraph(n, edges)


def bitwise_to_graph6(g):
    """The bit-by-bit encoder: one shift of a growing integer per pair."""
    if not g.is_simple():
        raise NotSimple("graph6 cannot encode parallel edges")
    adj = g.adjacency_counts()
    bits = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = (bits << 1) | (1 if adj[i][j] else 0)
            nbits += 1
    pad = (-nbits) % 6
    bits <<= pad
    nbits += pad
    chars = [chr(((bits >> k) & 63) + 63) for k in range(nbits - 6, -1, -6)]
    return _encode_size(g.n) + "".join(chars)


def outcome(fn, arg):
    """What fn(arg) gives: its value, or its exception's type and message."""
    try:
        return fn(arg)
    except Exception as exc:
        return type(exc), str(exc)


def random_simple_cubic(n, rng):
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        pairs = [
            (min(stubs[i], stubs[i + 1]), max(stubs[i], stubs[i + 1]))
            for i in range(0, 3 * n, 2)
        ]
        if any(u == v for u, v in pairs) or len(set(pairs)) != len(pairs):
            continue
        return CubicGraph(n, pairs)


def test_k4_against_reference_decoder():
    line = to_graph6(k4())
    n, adj = reference_decode(line)
    assert n == 4
    assert parse_graph6(line).m == 6
    assert all(adj[u][v] for u in range(4) for v in range(4) if u != v)


def test_petersen_against_reference_decoder():
    g = petersen()
    line = to_graph6(g)
    n, adj = reference_decode(line)
    assert n == 10
    counts = g.adjacency_counts()
    assert all(adj[u][v] == counts[u][v] for u in range(10) for v in range(10))
    assert parse_graph6(line).m == 15


def test_four_cycle_is_not_cubic():
    # C4 in graph6: n=4, edges 01,12,23,03
    bits = "101101"  # order (0,1),(0,2),(1,2),(0,3),(1,3),(2,3)
    line = chr(4 + 63) + chr(int(bits, 2) + 63)
    with pytest.raises(NotCubic):
        parse_graph6(line)


def test_header_is_accepted():
    line = to_graph6(petersen())
    assert parse_graph6(">>graph6<<" + line) == petersen()


def test_theta_refuses_to_encode():
    with pytest.raises(NotSimple):
        to_graph6(theta())


@pytest.mark.parametrize(
    "bad",
    ["", "I", "Ih", chr(40) + "abc", "I" + "~" * 20],
)
def test_malformed_lines_rejected(bad):
    with pytest.raises(MalformedGraph6):
        parse_graph6(bad)


def test_round_trip_preserves_adjacency_on_1000_random_graphs():
    rng = random.Random(20260809)
    for trial in range(1000):
        n = rng.choice((4, 6, 8, 10, 12, 14, 16, 18, 20))
        g = random_simple_cubic(n, rng)
        h = parse_graph6(to_graph6(g))
        assert h.adjacency_counts() == g.adjacency_counts()
        assert h == g


def test_large_vertex_count_size_field():
    # 3-byte size field kicks in above 62 vertices; build a 64-vertex prism
    g = prism(32)
    line = to_graph6(g)
    assert line.startswith(chr(126))
    assert parse_graph6(line) == g


def variants(line, rng):
    """Non-canonical spellings of line's graph, then malformed lines."""
    n, body = _decode_size(line)
    pad = (-n * (n - 1) // 2) % 6
    out = [">>graph6<<" + line, " >>graph6<< " + line + "\n"]
    if pad:  # nonzero padding bits
        last = ord(body[-1]) - 63
        out.append(line[:-1] + chr(63 + (last | rng.randrange(1, 1 << pad))))
    for prefix, top in (("~", 12), ("~~", 30)):  # the long size fields
        size = "".join(chr(((n >> s) & 63) + 63) for s in range(top, -1, -6))
        out.append(prefix + size + body)
    k = rng.randrange(len(line) - len(body), len(line))
    flipped = chr(63 + ((ord(line[k]) - 63) ^ (1 << rng.randrange(6))))
    out += [
        line[:-1],
        line + "?",
        line[:k] + flipped + line[k + 1:],  # usually not cubic
        line[:k] + " " + line[k:],
        line[:k] + "\x7f" + line[k + 1:],
    ]
    return out


def test_codec_matches_the_bitwise_reference_on_random_graphs():
    rng = random.Random(20261021)
    lines = []
    for n in range(4, 60, 2):
        for seed in range(2):
            g = random_bridgeless_cubic(n, seed)
            line = to_graph6(g)
            assert line == bitwise_to_graph6(g)
            assert parse_graph6(line) == bitwise_parse_graph6(line) == g
            lines.append(line)
    assert outcome(to_graph6, theta()) == outcome(bitwise_to_graph6, theta())
    malformed = ["", " ", ">>graph6<<", "I", "Ih", chr(40) + "abc", "~", "~?",
                 "~~????", "?", "A_", "~~~~~~~~", "Ih\udcff@GUAo"]
    for text in [v for line in lines for v in variants(line, rng)] + malformed:
        assert outcome(parse_graph6, text) == outcome(bitwise_parse_graph6, text)


def test_codec_is_linear_in_the_line_length():
    # n = 800: the bitwise codec takes about 2 s each way, this one ~0.02 s
    g = prism(400)
    start = time.process_time()
    line = to_graph6(g)
    encoded = time.process_time()
    assert parse_graph6(line) == g
    parsed = time.process_time()
    assert encoded - start < 1.0
    assert parsed - encoded < 1.0
