"""The BitGen stream: known answers, a one-block-at-a-time oracle, seed range,
a guard against draws that cost more than linear time, and the stream window
checked bit for bit against ``take`` and the oracle.

The known-answer digests were recorded from the first, one-block-at-a-time
BitGen. Every key, pool file and mock secret in the package is drawn from
this stream, so a change to any digest is a change to all of them.
"""

import hashlib
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdauth.bits import Bits
from qkdauth.cli import main
from qkdauth.planner import plan
from qkdauth.poolfile import dump_pool, new_pool
from qkdauth.rng import BitGen, StreamWindow

DRAWS = [0, 1, 7, 255, 256, 257, 3, 1000, 99_532, 5, 511, 0, 64]


def digest(draws: "list[Bits]") -> str:
    h = hashlib.sha256()
    for b in draws:
        h.update(f"{b.length}:{b.value:x};".encode())
    return h.hexdigest()


# int seed 0 is encoded as 16 zero bytes, so those two streams are one
KAT_TAKE = {
    0: "78c7a0c0c4241520e0b81124d6195b67c9c751cfbf481ca9c017d397a65723ac",
    1: "42aa965a6ab6da4b30b481112ddb074cf8e35ea88c19737ac00877914c1ec3dd",
    -1: "e8b19bd5a0271a7629a06fa6a6d51b06ede26599ad45009f5dad40466aadd2fb",
    "abc": "3072fb1dfb8f41e179c5c0e4ade8dc031f29ac06675a8b0df9c9031ad5d908f1",
    b"\x00" * 16: "78c7a0c0c4241520e0b81124d6195b67c9c751cfbf481ca9c017d397a65723ac",
}
KAT_DERIVE = "22f287f02132619a295e62de1f0de720b8a9d7b2977a324dd2fdbc285b393b0a"
KAT_TAKE_BYTES = "6eff5b56820a0ad086c9e86966e21fe5d57afc1b498c6d8b4e2bbc8c8f45bed0"
KAT_RANDINT = "dc39a208d461da71347c0acd109f4fb6b796774173fcb1dc7284b924274a482d"
KAT_POOL = "98f2821371e218ef38948ac702be6d07bd0fb38700a79939d10cbb3c8975c5a9"


@pytest.mark.parametrize("seed", list(KAT_TAKE), ids=repr)
def test_take_known_answers(seed):
    gen = BitGen(seed)
    assert digest([gen.take(n) for n in DRAWS]) == KAT_TAKE[seed]


def test_derive_chain_known_answer():
    root = BitGen(5)
    root.take(100)  # derive depends on the key only, not on what was drawn
    child = root.derive(3)
    grandchild = child.derive("trial")
    draws = [child.take(300), grandchild.take(1), grandchild.take(700),
             root.derive("x").derive(0).take(256)]
    assert digest(draws) == KAT_DERIVE


def test_take_bytes_and_randint_known_answers():
    gen = BitGen(9)
    data = gen.take_bytes(0) + gen.take_bytes(1) + gen.take_bytes(33) + gen.take_bytes(5000)
    assert hashlib.sha256(data).hexdigest() == KAT_TAKE_BYTES
    gen = BitGen("randint")
    values = [gen.randint(1000) for _ in range(500)] + [gen.randint(1), gen.randint(2**70 + 3)]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == KAT_RANDINT


def test_pool_file_known_answer():
    pool = new_pool(plan("1e-12", 65536, 63), rounds=64, seed=7)
    assert hashlib.sha256(dump_pool(pool)).hexdigest() == KAT_POOL


class ReferenceBitGen:
    """The stream one 256-bit block at a time, shifting the whole buffer
    per block: quadratic in the draw, but plainly SHA-256 in counter mode."""

    def __init__(self, seed: "int | bytes | str"):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big") if seed >= 0 else repr(seed).encode()
        elif isinstance(seed, str):
            seed = seed.encode()
        self.key = hashlib.sha256(seed).digest()
        self.counter = 0
        self.buf = 0
        self.buf_bits = 0

    def derive(self, label: "int | str") -> "ReferenceBitGen":
        return ReferenceBitGen(self.key + b"/" + str(label).encode())

    def take(self, nbits: int) -> Bits:
        while self.buf_bits < nbits:
            block = hashlib.sha256(self.key + struct.pack(">Q", self.counter)).digest()
            self.counter += 1
            self.buf = (self.buf << 256) | int.from_bytes(block, "big")
            self.buf_bits += 256
        self.buf_bits -= nbits
        out = self.buf >> self.buf_bits
        self.buf &= (1 << self.buf_bits) - 1
        return Bits(out, nbits)

    def take_bytes(self, nbytes: int) -> bytes:
        return self.take(8 * nbytes).to_bytes()

    def randint(self, upper: int) -> int:
        nbits = (upper - 1).bit_length() or 1
        while True:
            v = self.take(nbits).value
            if v < upper:
                return v


def read(window: StreamWindow) -> Bits:
    return Bits(int(window), len(window))


seeds = (st.integers(min_value=-(2**80), max_value=2**128 - 1)
         | st.text(max_size=8) | st.binary(max_size=20))
ops = st.one_of(
    st.tuples(st.just("take"),
              st.sampled_from([0, 1, 255, 256, 257, 99_532]) | st.integers(0, 3000)),
    st.tuples(st.just("take_bytes"), st.integers(0, 100)),
    st.tuples(st.just("randint"), st.integers(1, 2**300)),
    st.tuples(st.just("derive"), st.integers(0, 10) | st.text(max_size=4)),
    st.tuples(st.just("window"),
              st.sampled_from([0, 1, 255, 256, 257, 99_532]) | st.integers(0, 3000)),
)


@settings(max_examples=150, deadline=None)
@given(seeds, st.lists(ops, max_size=12))
def test_matches_one_block_reference(seed, script):
    gen, ref = BitGen(seed), ReferenceBitGen(seed)
    for op, arg in script:
        if op == "derive":
            gen, ref = gen.derive(arg), ref.derive(arg)
            continue
        if op == "window":
            assert read(gen.window(arg)) == ref.take(arg)
            continue
        got, want = getattr(gen, op)(arg), getattr(ref, op)(arg)
        if op == "take":
            assert (got.value, got.length) == (want.value, want.length)
        else:
            assert got == want


def test_long_draw_is_linear():
    # Refilling one block at a time shifts the whole buffer per block: 1.7 to
    # 2.5 s on a 2-vCPU VM, where one pass over the blocks takes about 20 ms.
    t0 = time.perf_counter()
    bits = BitGen(1).take(4_000_000)
    seconds = time.perf_counter() - t0
    assert len(bits) == 4_000_000
    assert seconds < 0.5


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(0, 600), st.integers(0, 2000), st.data())
def test_window_matches_take_and_reference(seed, skip, nbits, data):
    gen, twin, ref = BitGen(seed), BitGen(seed), ReferenceBitGen(seed)
    for g in (gen, twin, ref):
        g.take(skip)  # the window starts anywhere in a block
    view, taken, want = gen.window(nbits), twin.take(nbits), ref.take(nbits)
    assert read(view) == taken == want
    for _ in range(data.draw(st.integers(1, 3))):  # slices of slices
        a = data.draw(st.integers(0, len(view)))
        b = data.draw(st.integers(a, len(view)))
        view, want = view[a:b], want[a:b]
        assert read(view) == want
    # the window left the generator where take leaves it
    assert gen.take(300) == twin.take(300) == ref.take(300)
    assert gen.randint(10**6) == twin.randint(10**6) == ref.randint(10**6)


def test_window_edges():
    gen, ref = BitGen(3), ReferenceBitGen(3)
    gen.take(77)
    ref.take(77)
    window, whole = gen.window(1000), ref.take(1000)
    boundary = 256 - 77  # window bit 179 is stream bit 256, the start of block 1
    for a, b in [(0, 1000), (0, 0), (500, 500), (700, 300), (999, 1000),
                 (boundary - 1, boundary + 1), (boundary, boundary + 256),
                 (boundary - 5, boundary + 300), (3, 997)]:
        assert read(window[a:b]) == whole[a:b]
    assert read(window[-1:]) == whole[-1:] == Bits(whole.bit(999), 1)
    assert read(window[:]) == whole
    assert read(window[100:900][50:700][1:-1][::1]) == whole[100:900][50:700][1:-1]
    assert len(window[100:900][850:]) == 0 and int(window[5:5]) == 0
    for step in (2, 3, -1):
        with pytest.raises(ValueError, match="contiguous"):
            window[::step]
    for key in (5, -1, (0, 3)):
        with pytest.raises(TypeError, match="contiguous"):
            window[key]
    with pytest.raises(ValueError, match="negative"):
        BitGen(3).window(-1)
    with pytest.raises(ValueError, match="negative"):
        BitGen(1).take(-1)
    with pytest.raises(ValueError, match="positive"):
        BitGen(1).randint(0)


def test_window_of_nothing_and_of_whole_blocks():
    for skip, nbits in [(0, 0), (0, 256), (100, 156), (100, 0), (256, 512), (255, 1)]:
        gen, ref = BitGen("w"), ReferenceBitGen("w")
        gen.take(skip)
        ref.take(skip)
        assert read(gen.window(nbits)) == ref.take(nbits)
        assert gen.take(257) == ref.take(257)


def test_window_hashes_only_the_blocks_it_reads(monkeypatch):
    # A window over 2**30 bits is 2**22 blocks; only those under a read are
    # hashed.  The expected bits come straight from SHA-256 in counter mode.
    hashed = []
    blocks = BitGen._blocks

    def counting(self, first, count):
        hashed.append(count)
        return blocks(self, first, count)

    monkeypatch.setattr(BitGen, "_blocks", counting)
    gen = BitGen(1)
    gen.take(576)
    hashed.clear()
    window = gen.window(2**30)
    assert sum(hashed) == 0  # the next draw hashes the block it starts in
    tau, start = 40, 2**30 - 45
    tail = window[start:][:tau]
    assert sum(hashed) == 0
    got = read(tail)
    assert sum(hashed) <= 2

    pos = 576 + start  # stream bit of the slice's first bit
    key = hashlib.sha256((1).to_bytes(16, "big")).digest()
    stream = "".join(
        format(int.from_bytes(hashlib.sha256(key + struct.pack(">Q", i)).digest(), "big"),
               "0256b") for i in range(pos // 256, (pos + tau - 1) // 256 + 1))
    assert got.to01() == stream[pos % 256:pos % 256 + tau]
    hashed.clear()
    assert len(gen.take(0)) == 0 and hashed == []  # the window ended inside a block
    # the next draw starts 45 bits after the slice, in the block it read
    assert gen.take(5).to01() == stream[pos % 256 + 45:pos % 256 + 50]
    assert hashed == [1]


def test_seed_range():
    BitGen(2**128 - 1)
    BitGen(-(2**200))
    for seed in (2**128, 2**128 + 1, 2**1000):
        with pytest.raises(ValueError, match="2\\*\\*128"):
            BitGen(seed)


@pytest.mark.parametrize("command", [
    ["init-pool", "--eps-auth", "1e-12", "--mu", "4096", "--w", "63", "--rounds", "4",
     "--out", "{out}"],
    ["simulate", "--rounds", "4"],
    ["attack-stats", "--tau", "8", "--w", "8", "--mu", "64", "--trials", "10000"],
])
def test_cli_rejects_huge_seed(tmp_path, capsys, command):
    out = tmp_path / "pool.bin"
    argv = [a.format(out=out) for a in command] + ["--seed", str(2**128)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert not out.exists()
