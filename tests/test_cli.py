import collections
import contextlib
import fcntl
import io
import os
import random
import re
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qkdauth
from qkdauth.bits import Bits
from qkdauth.cli import DEFAULT_EPS, DEFAULT_MU, main
from qkdauth.hashing import OtpReuseError, Tag, compose_tag, find_field_params, verify_tag
from qkdauth.planner import make_plan, plan
from qkdauth.poolfile import (_HEADER, CONSUMED, MAGIC, VERSION, PoolFormatError, dump_pool,
                              load_pool, new_pool, parse_pool)
from qkdauth.protocol import KeyPool

# regression vector generated once from a fixed pool seed and frozen
KAT_MESSAGE = b"hello, authenticated world"
KAT_POOL_ARGS = ["--eps-auth", "1e-12", "--mu", "4096", "--w", "63", "--seed", "42"]
KAT_TAG_HEX = "451228cd1a"
HUGE = "1" + "0" * 400  # a 400-digit value


def make_pool(tmp_path, capsys, name, rounds=4):
    path = str(tmp_path / name)
    rc = main(["init-pool", "--out", path, "--rounds", str(rounds)] + KAT_POOL_ARGS)
    assert rc == 0
    capsys.readouterr()  # drain the confirmation line
    return path


def test_plan_single(capsys):
    assert main(["plan", "--eps-auth", "1e-12", "--mu", "1Mbit", "--w", "63"]) == 0
    out = capsys.readouterr().out
    assert "l_rec=166" in out and "l_otp=40" in out and "tau=40" in out


def test_plan_notes_the_published_deviation(capsys):
    assert main(["plan", "--eps-auth", "1e-12", "--mu", "1Mbit", "--w", "31"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "note: published tables list l_rec=229 for this (w, mu); "
        "the key-length formula gives 228.")
    assert main(["plan", "--eps-auth", "1e-12", "--mu", "1Mbit", "--w", "63"]) == 0
    assert "note:" not in capsys.readouterr().out


def test_plan_single_machine(capsys):
    assert main(["plan", "--eps-auth", "1e-12", "--mu", "64Mbit", "--w", "63",
                 "--machine"]) == 0
    assert capsys.readouterr().out.strip() == "64000000,63,2,293,40"


def test_plan_table(capsys):
    assert main(["plan", "--table", "--eps-auth", "1e-12"]) == 0
    out = capsys.readouterr().out
    for value in ("166", "293", "291", "354", "417", "228"):
        assert value in out
    assert "published tables list 229" in out
    # 5 mu rows with both w columns
    assert len([ln for ln in out.splitlines() if ln.strip().startswith(("1", "4", "2", "6"))]) >= 5


def test_plan_requires_mu_and_w(capsys):
    assert main(["plan", "--eps-auth", "1e-12"]) == 2


def test_plan_infeasible_exit(capsys):
    assert main(["plan", "--eps-auth", "0.25", "--mu", "16", "--w", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_primes(capsys):
    assert main(["primes", "--w-min", "31", "--w-max", "31"]) == 0
    assert capsys.readouterr().out.strip() == "31 11"
    assert main(["primes", "--w-min", "2", "--w-max", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 1", "3 3", "4 1"]
    assert main(["primes", "--w-min", "5", "--w-max", "4"]) == 2


def test_cost(capsys):
    assert main(["cost", "--eps-auth", "1e-33", "--l-sift", "995328",
                 "--eta-pa", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "tau=110" in out
    assert f"cost={110 / 99532.8!r}" in out
    assert out == "tau=110 l_sec=99532.8 cost=0.0011051633230452676\n"  # the README example


def test_tag_verify_round_trip(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    bob = make_pool(tmp_path, capsys, "bob.pool")
    assert main(["tag", "--key-pool", alice, "--round", "1", "--message", str(msg)]) == 0
    tag_hex = capsys.readouterr().out.strip()
    assert tag_hex == KAT_TAG_HEX
    assert main(["verify", "--key-pool", bob, "--round", "1", "--message", str(msg),
                 "--tag", tag_hex]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_tag_reads_the_message_from_stdin(tmp_path, capsys, monkeypatch):
    alice = make_pool(tmp_path, capsys, "alice.pool")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(KAT_MESSAGE)))
    assert main(["tag", "--key-pool", alice, "--round", "1", "--message", "-"]) == 0
    assert capsys.readouterr().out.strip() == KAT_TAG_HEX


def test_tag_round_is_single_use(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    assert main(["tag", "--key-pool", alice, "--round", "2", "--message", str(msg)]) == 0
    capsys.readouterr()
    assert main(["tag", "--key-pool", alice, "--round", "2", "--message", str(msg)]) == 2
    assert "already been used" in capsys.readouterr().err


def test_verify_detects_tamper(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    bob = make_pool(tmp_path, capsys, "bob.pool")
    assert main(["tag", "--key-pool", alice, "--round", "1", "--message", str(msg)]) == 0
    tag_hex = capsys.readouterr().out.strip()
    (tmp_path / "m2.bin").write_bytes(KAT_MESSAGE[:-1] + b"!")
    rc = main(["verify", "--key-pool", bob, "--round", "1",
               "--message", str(tmp_path / "m2.bin"), "--tag", tag_hex])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "FAIL"


def test_verify_also_consumes(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    bob = make_pool(tmp_path, capsys, "bob.pool")
    assert main(["verify", "--key-pool", bob, "--round", "3", "--message", str(msg),
                 "--tag", "0000000000"]) == 1
    capsys.readouterr()
    assert main(["verify", "--key-pool", bob, "--round", "3", "--message", str(msg),
                 "--tag", "0000000000"]) == 2


def test_tag_missing_round(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x")
    alice = make_pool(tmp_path, capsys, "alice.pool", rounds=2)
    assert main(["tag", "--key-pool", alice, "--round", "9", "--message", str(msg)]) == 2


def test_tag_rejects_malformed_pool_files(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    assert main(["tag", "--key-pool", alice, "--round", "1", "--message", str(msg)]) == 0
    capsys.readouterr()
    pool = load_pool(alice)
    blob = dump_pool(pool)
    # relabel round 2's entry as a second, unconsumed round 1
    empty = len(dump_pool(KeyPool(pool.plan, pool.recycled, {})))
    size = (len(blob) - empty) // len(pool.otp)
    relabelled = bytearray(blob)
    struct.pack_into(">I", relabelled, empty + size, 1)
    for bad, reason in ((bytes(relabelled), "rounds must increase"),
                        (blob + b"\x00", "trailing bytes")):
        with open(alice, "wb") as fh:
            fh.write(bad)
        assert main(["tag", "--key-pool", alice, "--round", "1", "--message", str(msg)]) == 2
        assert main(["verify", "--key-pool", alice, "--round", "3", "--message", str(msg),
                     "--tag", KAT_TAG_HEX]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(reason) == 2 and "Traceback" not in captured.err


def malformed_pools():
    """Pool files whose OTP entries disagree with the header, each with the
    error text it must give."""
    pool = new_pool(plan("1e-12", 4096, 63), rounds=4, seed=42)
    blob = dump_pool(pool)
    head = len(dump_pool(KeyPool(pool.plan, pool.recycled, {})))  # up to the entry count
    size = (len(blob) - head) // len(pool.otp)

    def patched(offset, value):
        out = bytearray(blob)
        struct.pack_into(">I", out, offset, value)
        return bytes(out)

    # the pool's rounds 1, 2 and 4: entry 3 holds round 4
    gap = (blob[:head - 4] + struct.pack(">I", 3) + blob[head:head + 2 * size]
           + blob[head + 3 * size:])
    key_pad = bytearray(blob)
    key_pad[head - 5] |= 1  # l_rec = 166: the recycled key's last byte has 2 pad bits
    short = bytearray(dump_pool(new_pool(make_plan(tau=6, lam=1, w=7, mu=256), 3, seed=42)))
    short[-1] |= 1  # tau = 6: round 3's mask ends the file with 2 pad bits
    return {
        "rounds-1-2-4": (gap, "OTP entry 3 holds round 4, rounds must be 1..3 in order"),
        "count-above-size": (patched(head - 4, 5), "truncated pool file"),
        "count-below-size": (patched(head - 4, 3), f"{size} trailing bytes"),
        "cut-inside-entry": (blob[:-3], "truncated pool file"),
        "bit-count-not-tau": (patched(head + size + 5, pool.plan.tau - 1),
                              f"round 2 is {pool.plan.tau - 1} bits, expected {pool.plan.tau}"),
        "recycled-key-pad-bit": (bytes(key_pad), "recycled key has nonzero padding bits"),
        "round-3-mask-pad-bit": (bytes(short), "OTP mask for round 3 has nonzero padding bits"),
    }


MALFORMED_POOLS = malformed_pools()


@pytest.mark.parametrize("blob, reason", MALFORMED_POOLS.values(), ids=MALFORMED_POOLS.keys())
def test_pool_layout_rejections(blob, reason, tmp_path, capsys):
    with pytest.raises(PoolFormatError) as exc:
        parse_pool(blob)
    assert reason in str(exc.value)
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    pool = tmp_path / "p.pool"
    pool.write_bytes(blob)
    for argv in (["tag", "--key-pool", str(pool), "--round", "1", "--message", str(msg)],
                 ["verify", "--key-pool", str(pool), "--round", "1", "--message", str(msg),
                  "--tag", KAT_TAG_HEX]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err
    assert pool.read_bytes() == blob


def test_in_place_consume_matches_rewrite_reference(tmp_path, capsys):
    """tag/verify write one flag byte in place; the reference loads the
    whole pool, consumes the mask and dumps the pool again."""
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    tampered = tmp_path / "m2.bin"
    tampered.write_bytes(KAT_MESSAGE[:-1] + b"!")
    alice = make_pool(tmp_path, capsys, "alice.pool", rounds=6)
    bob = make_pool(tmp_path, capsys, "bob.pool", rounds=6)
    reference = {alice: load_pool(alice), bob: load_pool(bob)}
    tags = {}
    steps = [("tag", alice, 1, msg), ("verify", bob, 1, msg), ("tag", alice, 2, msg),
             ("verify", bob, 2, tampered), ("tag", alice, 1, msg), ("verify", bob, 2, msg),
             ("tag", alice, 6, msg), ("verify", bob, 5, msg), ("verify", bob, 6, msg)]
    for command, path, round_, message in steps:
        ref = reference[path]
        m = Bits.from_bytes(message.read_bytes())
        args = (ref.recycled_pre, ref.otp[round_], ref.plan, find_field_params(ref.plan.w))
        tag = tags.get(round_, "0" * 10)
        try:
            if command == "tag":
                want = (0, compose_tag(m, *args).to_hex())
            else:
                ok = verify_tag(m, Tag(Bits.from_hex(tag, ref.plan.tau)), *args)
                want = (0, "ok") if ok else (1, "FAIL")
        except OtpReuseError:
            want = (2, "")
        argv = [command, "--key-pool", path, "--round", str(round_), "--message", str(message)]
        rc = main(argv + (["--tag", tag] if command == "verify" else []))
        assert (rc, capsys.readouterr().out.strip()) == want
        if command == "tag" and rc == 0:
            tags[round_] = want[1]
    assert tags[1] == KAT_TAG_HEX
    for path, ref in reference.items():
        assert Path(path).read_bytes() == dump_pool(ref)


def test_bit_flips_never_bring_back_a_consumed_mask(tmp_path, capsys):
    """Flip each bit of a pool whose round 2 is consumed, then tag every round.

    Every run on round 2 must exit 2 without a tag.  A flip in a fresh
    round's mask bits gives a tag that only fails ``verify``; that is not
    a failure here.  A flip of a fresh flag reads as consumed and wastes
    the mask, which fails closed.  ``tag`` accepts exactly the files that
    ``parse_pool`` accepts, and refuses exactly the consumed rounds."""
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    # a short pool with pad bits in its keys: tau = 6, l_rec = 20
    alice = str(tmp_path / "alice.pool")
    assert main(["init-pool", "--tau", "6", "--lam", "1", "--w", "7", "--mu", "256",
                 "--rounds", "3", "--seed", "42", "--out", alice]) == 0
    assert main(["tag", "--key-pool", alice, "--round", "2", "--message", str(msg)]) == 0
    capsys.readouterr()
    clean = Path(alice).read_bytes()
    for bit in range(8 * len(clean)):
        flipped = bytearray(clean)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        Path(alice).write_bytes(flipped)
        try:
            consumed = {r: k.consumed for r, k in parse_pool(bytes(flipped)).otp.items()}
        except PoolFormatError as exc:
            consumed, rejection = None, f"error: {exc}\n"
        for round_ in (1, 2, 3):
            rc = main(["tag", "--key-pool", alice, "--round", str(round_),
                       "--message", str(msg)])
            captured = capsys.readouterr()
            assert rc in (0, 2) and "Traceback" not in captured.err
            if round_ == 2:
                assert (rc, captured.out) == (2, ""), f"bit {bit} brought round 2 back"
            if consumed is None:
                assert (rc, captured.err) == (2, rejection), f"bit {bit}, round {round_}"
            else:
                assert (rc == 2) == consumed[round_], f"bit {bit}, round {round_}"


def test_tag_cost_does_not_grow_with_the_pool(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool", rounds=65536)
    t0 = time.perf_counter()
    assert main(["tag", "--key-pool", alice, "--round", "65536", "--message", str(msg)]) == 0
    # rewriting the whole 918 kB pool took ~0.55 s per tag on a 2-vCPU VM
    assert time.perf_counter() - t0 < 0.25
    capsys.readouterr()
    assert load_pool(alice).otp[65536].consumed


def test_hostile_pool_header_fails_fast(tmp_path, capsys):
    # the largest header values: planning them used to take minutes
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    pool = tmp_path / "hostile.pool"
    pool.write_bytes(MAGIC + bytes([VERSION]) + _HEADER.pack(255, 65535, 65535, 2**64 - 1))
    t0 = time.perf_counter()
    assert main(["tag", "--key-pool", str(pool), "--round", "1", "--message", str(msg)]) == 2
    assert main(["verify", "--key-pool", str(pool), "--round", "1", "--message", str(msg),
                 "--tag", KAT_TAG_HEX]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("out of range") == 2 and "Traceback" not in captured.err


def first_entry_offset(path):
    """Offset of round 1's OTP entry in the pool file at ``path``."""
    pool = load_pool(path)
    return len(dump_pool(KeyPool(pool.plan, pool.recycled, {})))


def test_tag_fails_cleanly_when_pool_write_fails(tmp_path, capsys, monkeypatch):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    before = Path(alice).read_bytes()
    flag = first_entry_offset(alice) + 4

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    assert main(["tag", "--key-pool", alice, "--round", "1", "--message", str(msg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no tag leaves without the consumed mask on disk
    assert "disk full" in captured.err and "Traceback" not in captured.err
    # the flag was written before the failed fsync: the mask is wasted, not reusable
    after = Path(alice).read_bytes()
    assert after[flag] != 0
    assert after[:flag] + after[flag + 1:] == before[:flag] + before[flag + 1:]
    assert main(["tag", "--key-pool", alice, "--round", "1", "--message", str(msg)]) == 2
    assert "already been used" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["alice.pool", "m.bin"]


def test_tag_fails_cleanly_when_flag_write_fails(tmp_path, capsys, monkeypatch):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    flag = first_entry_offset(alice) + 4

    def failing_pwrite(fd, data, offset):
        raise OSError("I/O error")

    monkeypatch.setattr(os, "pwrite", failing_pwrite)
    assert main(["tag", "--key-pool", alice, "--round", "1", "--message", str(msg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: I/O error\n"
    assert Path(alice).read_bytes()[flag] in (0x00, CONSUMED)


# Each racer imports the CLI, touches its ready file and then blocks on a
# shared lock of the gate file, so all commands start when the gate opens.
RACER = """
import fcntl, sys
from qkdauth.cli import main
ready, gate, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
open(ready, "w").close()
with open(gate, "rb") as fh:
    fcntl.flock(fh, fcntl.LOCK_SH)
sys.exit(main(argv))
"""


@contextlib.contextmanager
def racers(tmp_path, argv, n):
    """Start n CLI processes running argv; they all begin when the block exits
    and are returned through the yielded list."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qkdauth.__file__)))
    gate = tmp_path / "gate"
    gate.touch()
    procs = []
    with open(gate, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        for i in range(n):
            procs.append(subprocess.Popen(
                [sys.executable, "-c", RACER, str(tmp_path / f"ready{i}"), str(gate), *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env))
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"ready{i}").exists() for i in range(n)):
            assert time.monotonic() < deadline and all(p.poll() is None for p in procs)
            time.sleep(0.01)
        yield procs


def test_tag_waits_for_the_pool_lock(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    with open(alice, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        with racers(tmp_path, ["tag", "--key-pool", alice, "--round", "1",
                               "--message", str(msg)], 1) as (proc,):
            pass
        time.sleep(1.0)  # an unblocked tag finishes in milliseconds
        assert proc.poll() is None
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out.strip(), err) == (0, KAT_TAG_HEX, "")


# Runs the CLI with a stdin whose first read touches the ready file, so the
# test knows when the command waits for its message.
STDIN_READER = """
import sys, types
from qkdauth.cli import main
ready, argv, stdin = sys.argv[1], sys.argv[2:], sys.stdin.buffer

class Buffer:
    def read(self):
        open(ready, "w").close()
        return stdin.read()

sys.stdin = types.SimpleNamespace(buffer=Buffer())
sys.exit(main(argv))
"""


@pytest.mark.parametrize("argv, printed", [
    pytest.param(["tag"], KAT_TAG_HEX, id="tag"),
    pytest.param(["verify", "--tag", KAT_TAG_HEX], "ok", id="verify"),
])
def test_waiting_for_stdin_holds_no_pool_lock(tmp_path, capsys, argv, printed):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qkdauth.__file__)))
    ready = tmp_path / "ready"
    proc = subprocess.Popen(
        [sys.executable, "-c", STDIN_READER, str(ready), *argv, "--key-pool", alice,
         "--round", "1", "--message", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        deadline = time.monotonic() + 60
        while not ready.exists():
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.01)
        with open(alice, "rb") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                pytest.fail("the pool is locked while the command waits for stdin")
        assert main(["tag", "--key-pool", alice, "--round", "2", "--message", str(msg)]) == 0
        out, err = proc.communicate(KAT_MESSAGE, timeout=60)
    except BaseException:
        proc.kill()
        proc.communicate(timeout=60)
        raise
    assert (proc.returncode, out.decode().strip(), err) == (0, printed, b"")


def test_racing_tags_use_one_mask_once(tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    # a long pool file widens the window between a racer's read and its rename
    alice = make_pool(tmp_path, capsys, "alice.pool", rounds=2048)
    with racers(tmp_path, ["tag", "--key-pool", alice, "--round", "1",
                           "--message", str(msg)], 4) as procs:
        pass
    results = sorted((p.wait(timeout=60), p.stdout.read().strip(), p.stderr.read())
                     for p in procs)
    for p in procs:
        p.stdout.close()
        p.stderr.close()
    assert [rc for rc, _, _ in results] == [0, 2, 2, 2]
    assert results[0][1] == KAT_TAG_HEX
    assert all(out == "" and "already been used" in err for _, out, err in results[1:])
    assert load_pool(alice).otp[1].consumed and not load_pool(alice).otp[2].consumed


BAD_INPUTS = {
    "plan-eps-text": ["plan", "--eps-auth", "abc", "--mu", "4096", "--w", "63"],
    "plan-eps-inf": ["plan", "--eps-auth", "inf", "--mu", "4096", "--w", "63"],
    "plan-eps-tiny": ["plan", "--eps-auth", "1e-999999999", "--mu", "4096", "--w", "63"],
    "plan-eps-huge": ["plan", "--eps-auth", "1e999999999", "--mu", "4096", "--w", "63"],
    "cost-eps-text": ["cost", "--eps-auth", "abc", "--l-sift", "1000", "--eta-pa", "0.1"],
    "init-pool-eps-text": ["init-pool", "--eps-auth", "abc", "--seed", "1", "--out", "{pool}"],
    "init-pool-tau": ["init-pool", "--tau", "70000", "--seed", "1", "--out", "{pool}"],
    "init-pool-mu": ["init-pool", "--tau", "16", "--mu", "18446744073709551616",
                     "--seed", "1", "--out", "{pool}"],
    "simulate-eps-text": ["simulate", "--rounds", "2", "--eps-auth", "abc"],
    "simulate-eps-pred-nan": ["simulate", "--rounds", "2", "--eps-pred", "nan"],
    "simulate-eps-pred-nan-long": ["simulate", "--rounds", "100000", "--eps-pred", "nan"],
    "simulate-eps-qkd-inf": ["simulate", "--rounds", "2", "--eps-qkd", "inf"],
    "simulate-eps-store-text": ["simulate", "--rounds", "2", "--eps-store", "abc"],
    "simulate-eps-qkd-negative": ["simulate", "--rounds", "2", "--eps-qkd=-1e-9"],
    "simulate-eps-qkd-negative-token": ["simulate", "--rounds", "2", "--eps-qkd", "-1e-9"],
    "plan-eps-negative-token": ["plan", "--eps-auth", "-1e-3", "--mu", "4096", "--w", "63"],
    "cost-key-shorter-than-tag": ["cost", "--eps-auth", "1e-3", "--l-sift", "1000",
                                  "--eta-pa", "1e-300"],
    "cost-eps-negative-token": ["cost", "--eps-auth", "-1e-3", "--l-sift", "1000",
                                "--eta-pa", "0.1"],
    "attack-stats-no-trials": ["attack-stats", "--tau", "8", "--w", "15", "--mu", "512",
                               "--trials", "0"],
    # a bad plan fails before the few-trials advisory is printed
    "attack-stats-few-trials-mu-0": ["attack-stats", "--tau", "8", "--w", "15", "--mu", "0",
                                     "--trials", "10"],
    "attack-stats-few-trials-w-64": ["attack-stats", "--tau", "8", "--w", "64", "--mu", "512",
                                     "--trials", "10"],
    "init-pool-no-rounds": ["init-pool", "--rounds", "0", "--seed", "1", "--out", "{pool}"],
    "init-pool-negative-rounds": ["init-pool", "--rounds", "-1", "--seed", "1",
                                  "--out", "{pool}"],
    "plan-no-mu": ["plan", "--w", "63"],
    "plan-no-w": ["plan", "--mu", "4096"],
    "primes-empty-range": ["primes", "--w-min", "5", "--w-max", "4"],
    "primes-w-above-63": ["primes", "--w-min", "62", "--w-max", "64"],
    # each used to run the whole session, then raise OverflowError in the ledger's float()
    "simulate-eps-pred-above-float": ["simulate", "--rounds", "2", "--eps-pred", "1e400"],
    "simulate-plan-bound-above-float": ["simulate", "--rounds", "2", "--tau", "8", "--w", "2",
                                        "--mu", HUGE],
    # each used to print a failure probability above 1
    "simulate-eps-store-above-1": ["simulate", "--rounds", "2", "--eps-store", "2"],
    "simulate-plan-bound-above-1": ["simulate", "--rounds", "2", "--tau", "1", "--w", "2",
                                    "--mu", "4096"],
    "simulate-plan-bound-exactly-1": ["simulate", "--rounds", "2", "--tau", "1", "--w", "15",
                                      "--mu", "245760"],
    "init-pool-plan-bound-above-1": ["init-pool", "--tau", "1", "--w", "2", "--mu", "4096",
                                     "--seed", "1", "--out", "{pool}"],
    # each used to raise OverflowError from 1 << tau
    "simulate-tau-huge": ["simulate", "--rounds", "2", "--tau", HUGE],
    "init-pool-tau-huge": ["init-pool", "--tau", HUGE, "--seed", "1", "--out", "{pool}"],
    "attack-stats-tau-huge": ["attack-stats", "--tau", HUGE, "--w", "15", "--mu", "512",
                              "--trials", "10000"],
    # used to raise OverflowError converting l_sift to a float
    "cost-l-sift-huge": ["cost", "--eps-auth", "1e-12", "--l-sift", HUGE, "--eta-pa", "0.5"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_fails_closed(argv, tmp_path, capsys):
    t0 = time.perf_counter()
    assert main([a.format(pool=tmp_path / "p.pool") for a in argv]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert os.listdir(tmp_path) == []  # no pool file, no temp file


# one text value for every flag that argparse converts with its own type=
TYPED_FLAG_TEXT = {
    "--w": ["plan", "--mu", "4096", "--w", "abc"],
    "--tau": ["init-pool", "--tau", "abc", "--seed", "1", "--out", "{pool}"],
    "--lam": ["attack-stats", "--tau", "8", "--w", "15", "--mu", "512", "--lam", "abc"],
    "--rounds": ["simulate", "--rounds", "abc"],
    "--seed": ["init-pool", "--seed", "abc", "--out", "{pool}"],
    "--trials": ["attack-stats", "--tau", "8", "--w", "15", "--mu", "512", "--trials", "abc"],
    "--l-sift": ["cost", "--eps-auth", "1e-3", "--l-sift", "abc", "--eta-pa", "0.1"],
    "--eta-pa": ["cost", "--eps-auth", "1e-3", "--l-sift", "1000", "--eta-pa", "abc"],
    "--round": ["tag", "--key-pool", "{pool}", "--round", "abc", "--message", "-"],
    "--msg-bits": ["verify", "--key-pool", "{pool}", "--round", "1", "--message", "-",
                   "--msg-bits", "abc", "--tag", "00"],
}


@pytest.mark.parametrize("flag", TYPED_FLAG_TEXT)
def test_typed_flag_text_value_prints_one_error_line(flag, tmp_path, capsys):
    argv = [a.format(pool=tmp_path / "p.pool") for a in TYPED_FLAG_TEXT[flag]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {flag}: invalid " \
        f"{'float' if flag == '--eta-pa' else 'int'} value: 'abc'\n"
    assert os.listdir(tmp_path) == []


# a value token that argparse alone would take for an option name
NEGATIVE_VALUE_TOKENS = {
    "simulate-eps-qkd": ["simulate", "--rounds", "2", "--eps-qkd", "-1e-9"],
    "plan-eps-auth": ["plan", "--eps-auth", "-1e-3", "--mu", "4096", "--w", "63"],
    "cost-eta-pa": ["cost", "--eps-auth", "1e-3", "--l-sift", "1000", "--eta-pa", "-1e-1"],
    "plan-mu": ["plan", "--mu", "-1Mbit", "--w", "63"],
    "attack-stats-mu": ["attack-stats", "--tau", "8", "--w", "15", "--mu", "-5e2"],
}


@pytest.mark.parametrize("argv", NEGATIVE_VALUE_TOKENS.values(), ids=NEGATIVE_VALUE_TOKENS.keys())
def test_negative_value_token_reads_like_the_equals_form(argv, capsys):
    i = next(i for i, a in enumerate(argv) if re.match(r"-\.?\d", a))
    assert main(argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]) == 2
    joined = capsys.readouterr()
    assert joined.err.startswith("error: ") and joined.err.count("\n") == 1
    assert main(argv) == 2
    assert capsys.readouterr() == joined


def test_simulate_clean_and_terminated(capsys):
    assert main(["simulate", "--rounds", "4", "--adversary", "none", "--seed", "7"]) == 0
    out1 = capsys.readouterr().out
    assert "terminated=no" in out1
    assert main(["simulate", "--rounds", "4", "--adversary", "none", "--seed", "7"]) == 0
    assert capsys.readouterr().out == out1  # byte-identical
    assert main(["simulate", "--rounds", "6", "--adversary", "tamper:3",
                 "--seed", "7"]) == 1
    assert "terminated=yes" in capsys.readouterr().out


def test_simulate_budget_line_matches_formula(capsys):
    assert main(["simulate", "--rounds", "4", "--adversary", "none", "--seed", "1",
                 "--eps-pred", "1e-10", "--eps-store", "2e-10",
                 "--eps-qkd", "1e-12"]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("budget"))
    fields = dict(kv.split("=") for kv in line.split()[1:])
    exact = Fraction(1, 10**10) + Fraction(2, 10**10) + \
        4 * (plan("1e-12", 4096, 63).eps_achieved + Fraction(1, 10**12))
    assert fields["total"] == repr(float(exact))  # the exact sum, rounded once
    assert fields["eps_auth"] == repr(float(plan("1e-12", 4096, 63).eps_achieved))


def test_simulate_bad_adversary(capsys):
    assert main(["simulate", "--rounds", "4", "--adversary", "gremlins:2"]) == 2


def test_attack_stats_output_and_warning(capsys):
    assert main(["attack-stats", "--tau", "8", "--w", "15", "--mu", "512",
                 "--trials", "2000", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "trials=2000" in captured.out and "bound=" in captured.out
    assert "consider at least" in captured.err  # low-trial warning


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "xor-universality alpha=4 beta=2: worst 1/4 bound 1/4 over 120 pairs -> ok",
        "poly collision census w=3 mu=5 lam=1: worst 1/8 bound 1/4 over 1953 pairs -> ok",
        "poly collision census w=3 mu=5 lam=2: worst 1/64 bound 1/16 over 1953 pairs -> ok",
        "strong-uniformity census w=2 lam=1 tau=2 mu=3: worst 7/64 bound 3/16 over 105 pairs "
        "-> ok",
    ]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--no-such-flag"])
    assert exc.value.code == 2


# -- per-process constants: one parser, one field search, one id column ------

def run_main(argv):
    """Exit code, stdout and stderr of one in-process ``main`` call; an
    argparse usage error exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


# Every command, with failing argvs between them, so that a parse that
# failed half-way is followed by one that must succeed.
PARSER_REUSE_SEQUENCE = [
    ["plan", "--eps-auth", "1e-12", "--mu", "1Mbit", "--w", "31"],
    ["plan", "--no-such-flag"],
    ["primes", "--w-min", "2", "--w-max", "5"],
    ["primes", "--w-min", "abc", "--w-max", "5"],
    ["cost", "--eps-auth", "1e-33", "--l-sift", "995328", "--eta-pa", "0.1"],
    ["init-pool", "--out", "alice.pool", "--rounds", "4"] + KAT_POOL_ARGS,
    ["tag", "--round", "1", "--message", "m.bin"],
    ["init-pool", "--out", "bob.pool", "--rounds", "4"] + KAT_POOL_ARGS,
    ["tag", "--key-pool", "alice.pool", "--round", "1", "--message", "m.bin"],
    ["simulate", "--rounds", "2", "--eps-qkd", "-1e-9"],
    ["verify", "--key-pool", "bob.pool", "--round", "1", "--message", "m.bin",
     "--tag", KAT_TAG_HEX],
    [],
    ["verify", "--key-pool", "bob.pool", "--round", "2", "--message", "m.bin",
     "--msg-bits", "200", "--tag", KAT_TAG_HEX],
    ["simulate", "--rounds", "4", "--adversary", "tamper:3", "--seed", "7"],
    ["attack-stats", "--tau", "8", "--w", "15", "--mu", "512", "--trials", "200"],
    ["plan", "--table", "--machine"],
    ["selftest"],
    ["tag", "--key-pool", "alice.pool", "--round", "1", "--message", "m.bin"],
]


def test_shared_parser_gives_what_a_fresh_parser_gives(tmp_path, monkeypatch):
    from qkdauth.cli import build_parser

    runs = []
    for fresh in (False, True):
        (tmp_path / str(fresh)).mkdir()
        monkeypatch.chdir(tmp_path / str(fresh))
        Path("m.bin").write_bytes(KAT_MESSAGE)
        results = []
        for argv in PARSER_REUSE_SEQUENCE:
            if fresh:
                build_parser.cache_clear()
            results.append(run_main(argv))
        runs.append(results)
    assert runs[0] == runs[1]
    assert {rc for rc, _, _ in runs[0]} == {0, 1, 2}
    assert [out for _, out, _ in runs[0]].count(KAT_TAG_HEX + "\n") == 1
    assert build_parser() is build_parser()


def test_tag_and_verify_build_per_process_constants_once(tmp_path, capsys, monkeypatch):
    """50 tag/verify calls build the parser once, search for the field
    prime once and build the round-id column once: counted, not timed."""
    from qkdauth import cli, hashing, poolfile

    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    alice = make_pool(tmp_path, capsys, "alice.pool", rounds=25)
    bob = make_pool(tmp_path, capsys, "bob.pool", rounds=25)
    parsers, prime_tests = [], []
    parser_init, is_prime = cli._Parser.__init__, hashing.is_prime_u64

    def counting_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        parser_init(self, *args, **kwargs)

    def counting_is_prime(n):
        prime_tests.append(n)
        return is_prime(n)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.setattr(hashing, "is_prime_u64", counting_is_prime)
    for cached in (cli.build_parser, hashing.find_field_params, poolfile._round_id_columns):
        cached.cache_clear()
    for r in range(1, 26):
        assert main(["tag", "--key-pool", alice, "--round", str(r), "--message", str(msg)]) == 0
        tag_hex = capsys.readouterr().out.strip()
        assert main(["verify", "--key-pool", bob, "--round", str(r), "--message", str(msg),
                     "--tag", tag_hex]) == 0
        assert capsys.readouterr().out == "ok\n"
    assert parsers.count("qkdauth") == 1  # the subparsers are named "qkdauth <command>"
    assert len(prime_tests) == (find_field_params(63).delta + 1) // 2
    assert poolfile._round_id_columns.cache_info().misses == 1


# Validates one pool file in a fresh interpreter and prints what it says.
COLD_CHECK = """
import sys
from qkdauth.cli import main
from qkdauth.poolfile import PoolFormatError, parse_pool
mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
if mode == "parse":
    try:
        parse_pool(open(path, "rb").read())
    except PoolFormatError as exc:
        print(exc)
else:
    sys.stderr = sys.stdout
    main(argv + [path])
"""


def test_round_id_memo_never_carries_acceptance(tmp_path, capsys):
    """After a well-formed 2048-round pool is accepted, each malformed pool
    is still rejected in full, with the message a cold process gives."""
    pool = new_pool(plan("1e-12", 4096, 63), rounds=2048, seed=42)
    good = dump_pool(pool)
    head = len(dump_pool(KeyPool(pool.plan, pool.recycled, {})))
    size = (len(good) - head) // 2048
    wrong_id = bytearray(good)
    struct.pack_into(">I", wrong_id, head + 999 * size, 7)
    wrong_bits = bytearray(good)
    struct.pack_into(">I", wrong_bits, head + 1500 * size + 5, 39)
    short = dump_pool(new_pool(plan("1e-12", 4096, 63), rounds=2047, seed=42))[:-2]
    bad = {
        "wrong-id": (bytes(wrong_id), "OTP entry 1000 holds round 7, rounds must increase"),
        "wrong-bit-count": (bytes(wrong_bits), "OTP entry for round 1501 is 39 bits, expected 40"),
        "other-count-truncated": (short, "truncated pool file: 2047 OTP entries end at byte"),
    }
    msg = tmp_path / "m.bin"
    msg.write_bytes(KAT_MESSAGE)
    tag_argv = ["tag", "--round", "2", "--message", str(msg), "--key-pool"]
    (tmp_path / "good.pool").write_bytes(good)
    assert parse_pool(good).otp.keys() == set(range(1, 2049))
    assert main(tag_argv + [str(tmp_path / "good.pool")]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qkdauth.__file__)))
    for name, (blob, reason) in bad.items():
        path = tmp_path / f"{name}.pool"
        path.write_bytes(blob)
        with pytest.raises(PoolFormatError) as exc:
            parse_pool(blob)
        assert main(tag_argv + [str(path)]) == 2
        warm = (str(exc.value), capsys.readouterr().err)
        assert reason in warm[0] and warm[1] == f"error: {warm[0]}\n"
        cold = [subprocess.run([sys.executable, "-c", COLD_CHECK, mode, str(path), *tag_argv],
                               capture_output=True, text=True, env=env, timeout=60).stdout
                for mode in ("parse", "tag")]
        assert cold == [warm[0] + "\n", warm[1]], name
        assert path.read_bytes() == blob





# --tag and --msg-bits values that do not fit the pool or the message
BAD_TAG_AND_MSG_BITS = {
    "tag-too-long": (["verify", "--tag", "123456789012345678"],
                     "--tag must be 10 hex digits for tau=40"),
    "tag-odd-digits": (["verify", "--tag", "00000000000"],
                       "--tag must be 10 hex digits for tau=40"),
    "tag-msg-bits-above": (["tag", "--msg-bits", "41"],
                           "--msg-bits must be in 33..40 for a 5-byte message"),
    "verify-msg-bits-below": (["verify", "--msg-bits", "32", "--tag", "0" * 10],
                              "--msg-bits must be in 33..40 for a 5-byte message"),
    "tag-msg-bits-cuts-set-bits": (["tag", "--msg-bits", "33"],
                                   "--msg-bits 33 cuts set bits off the message's last byte"),
}


@pytest.mark.parametrize("args, line", BAD_TAG_AND_MSG_BITS.values(),
                         ids=BAD_TAG_AND_MSG_BITS.keys())
def test_bad_tag_or_msg_bits_names_the_flag_and_keeps_the_mask(args, line, tmp_path, capsys):
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"hello")
    pool = make_pool(tmp_path, capsys, "p.pool")
    before = Path(pool).read_bytes()
    flag = first_entry_offset(pool) + 4
    argv = args[:1] + ["--key-pool", pool, "--round", "1", "--message", str(msg)] + args[1:]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    after = Path(pool).read_bytes()
    assert after[flag] == 0 and after == before  # no mask consumed


# plan flags that the plan source would ignore, and --mu and --adversary
# values that are not what the flag takes: each names its flags
LAM_ALONE = "--lam needs --tau; without it --eps-auth sets lam"
MU_TEXT = "argument --mu: not a bit count or '<n>Mbit': "
BAD_PLAN_FLAGS = {
    "init-pool-lam-without-tau": (["init-pool", "--lam", "5", "--seed", "1",
                                   "--out", "{pool}"], LAM_ALONE),
    "simulate-lam-without-tau": (["simulate", "--rounds", "2", "--lam", "5"], LAM_ALONE),
    "init-pool-eps-auth-with-tau": (["init-pool", "--tau", "20", "--eps-auth", "1e-30",
                                     "--seed", "1", "--out", "{pool}"],
                                    "argument --eps-auth: not allowed with argument --tau"),
    "simulate-tau-after-eps-auth": (["simulate", "--rounds", "2", "--eps-auth", "1e-30",
                                     "--tau", "20"],
                                    "argument --tau: not allowed with argument --eps-auth"),
    "plan-mu-text": (["plan", "--mu", "abc", "--w", "63"], MU_TEXT + "'abc'"),
    "init-pool-mu-decimal-mbit": (["init-pool", "--mu", "1.5Mbit", "--seed", "1",
                                   "--out", "{pool}"], MU_TEXT + "'1.5Mbit'"),
    "simulate-mu-text": (["simulate", "--rounds", "2", "--mu", "4k"], MU_TEXT + "'4k'"),
    "attack-stats-mu-decimal-mbit": (["attack-stats", "--tau", "8", "--w", "15",
                                      "--mu", "1.5Mbit"], MU_TEXT + "'1.5Mbit'"),
    "simulate-adversary-round-text": (
        ["simulate", "--rounds", "2", "--adversary", "substitute:x"],
        "argument --adversary: adversary 'substitute' needs a round number, e.g. substitute:3"),
    "simulate-adversary-kind": (["simulate", "--rounds", "2", "--adversary", "gremlins:2"],
                                "argument --adversary: unknown adversary kind 'gremlins'"),
}


@pytest.mark.parametrize("args, line", BAD_PLAN_FLAGS.values(), ids=BAD_PLAN_FLAGS.keys())
def test_bad_plan_flags_name_the_flags_and_write_nothing(args, line, tmp_path, capsys):
    assert main([a.format(pool=tmp_path / "p.pool") for a in args]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert os.listdir(tmp_path) == []


def test_plan_flags_that_stay_valid(tmp_path, capsys):
    assert main(["simulate", "--rounds", "2", "--tau", "20"]) == 0  # lam defaults to 1
    assert "plan w=63 tau=20 lam=1 " in capsys.readouterr().out
    assert main(["simulate", "--rounds", "2", "--tau", "20", "--lam", "2"]) == 0
    assert "plan w=63 tau=20 lam=2 " in capsys.readouterr().out
    want = plan("1e-30", DEFAULT_MU, 63)
    assert main(["simulate", "--rounds", "2", "--eps-auth", "1e-30"]) == 0
    assert f"plan w=63 tau={want.tau} lam={want.lam} " in capsys.readouterr().out
    assert main(["init-pool", "--seed", "1", "--out", str(tmp_path / "p.pool")]) == 0
    got, want = load_pool(str(tmp_path / "p.pool")).plan, plan(DEFAULT_EPS, DEFAULT_MU, 63)
    assert (got.tau, got.lam, got.w, got.mu) == (want.tau, want.lam, want.w, want.mu)


# -- argv fuzz: every command, hostile values, no exception escapes main ------

FUZZ_VALUES = ["0", "1", "2", "3", "-1", "8", "15", "63", "64", "4096", "65535", "65536",
               "131073", "1Mbit", "-1Mbit", "0.5", "1e-12", "1e-400", "1e400", "-1e400",
               "nan", "inf", "-inf", "abc", "", "0x10", HUGE, "-" + HUGE, HUGE + "Mbit",
               "1e" + HUGE, "9" * 5000]
# --rounds, --trials and attack-stats --mu set the amount of work: a huge one
# is slow work, not a defect, so their hostile values stay small
FUZZ_WORK = ["-" + HUGE, "-1", "0", "1", "2", "3", "4", "1e400", "abc", ""]


def fuzz_flags(tmp_path):
    """Each command's flags, each with the valid values and the hostile ones
    that the fuzz draws from; None for a flag that takes no value."""
    msg, alice, bob, missing, folder = (str(tmp_path / name) for name in (
        "m.bin", "alice.pool", "bob.pool", "missing", "folder"))

    def num(*good):
        return list(good), FUZZ_VALUES

    def work(*good):
        return list(good), FUZZ_WORK

    plan_source = {"--eps-auth": num("1e-12", "1e-6"), "--mu": num("512", "4096", "1Mbit"),
                   "--w": num("15", "31", "63"), "--tau": num("8", "16", "40"),
                   "--lam": num("1", "2")}
    pool_step = {"--key-pool": ([alice, bob], [missing, folder, msg]),
                 "--round": num("1", "2", "3", "4"), "--message": ([msg], ["-", missing, alice]),
                 "--msg-bits": num("208", "201")}
    eps = num("0", "1e-10", "1")
    return {
        "plan": {"--eps-auth": num("1e-12", "1e-33"), "--mu": num("4096", "1Mbit"),
                 "--w": num("31", "63"), "--table": None, "--machine": None},
        "primes": {"--w-min": num("2", "15"), "--w-max": num("31", "63")},
        "cost": {"--eps-auth": num("1e-12", "1e-33"), "--l-sift": num("1000", "995328"),
                 "--eta-pa": num("0.1", "1")},
        "init-pool": {**plan_source, "--rounds": work("2", "4"), "--seed": num("0", "42"),
                      "--out": ([alice, bob, str(tmp_path / "new.pool")],
                                [folder, str(tmp_path / "missing" / "x.pool")])},
        "tag": pool_step,
        "verify": {**pool_step, "--tag": ([KAT_TAG_HEX, "00" * 5],
                                          ["0" * 11, "zz", "", HUGE])},
        "simulate": {**plan_source, "--rounds": work("2", "4"), "--seed": num("0", "7"),
                     "--adversary": (["none", "quantum:1", "tamper:3", "block:3", "block:5",
                                      "substitute:2", "substitute:2:best-guess",
                                      "impersonate:1"],
                                     ["tamper:" + HUGE, "block:-1", "gremlins:2", "tamper",
                                      ""]),
                     "--eps-pred": eps, "--eps-store": eps, "--eps-qkd": eps},
        "attack-stats": {"--tau": num("8", "16"), "--w": num("15"), "--mu": work("64", "512"),
                         "--lam": num("1", "2"), "--trials": work("1", "20"),
                         "--seed": num("0", "1"),
                         "--strategy": (["random", "best-guess", "replay", "impersonate"],
                                        ["bogus"])},
    }


def test_argv_fuzz_every_command_exits_0_1_or_2(tmp_path, monkeypatch):
    """A seeded fuzz of argv lists over every command, tag and verify
    included: each call returns 0, 1 or 2, or exits 2 through argparse's
    usage error, and no exception escapes ``main``."""
    (tmp_path / "m.bin").write_bytes(KAT_MESSAGE)
    (tmp_path / "folder").mkdir()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(KAT_MESSAGE)))
    assert run_main(["selftest"])[0] == 0  # it takes no flags
    flags = fuzz_flags(tmp_path)
    rng = random.Random(26)
    codes = collections.Counter()
    for i in range(3000):
        if i % 100 == 0:  # fresh pools, so that tag and verify also succeed
            for name in ("alice.pool", "bob.pool"):
                assert run_main(["init-pool", "--out", str(tmp_path / name)]
                                + KAT_POOL_ARGS)[0] == 0
        command = rng.choice(sorted(flags))
        argv = [command]
        for flag, values in flags[command].items():
            if rng.random() < 0.7 or flag == "--trials":  # its default is 10**5 trials
                argv += [flag] if values is None else [
                    flag, rng.choice(values[0] if rng.random() < 0.8 else values[1])]
        try:
            rc = run_main(argv)[0]
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__} escaped main for {argv!r:.600}")
        assert rc in (0, 1, 2), argv
        codes[command, rc] += 1
    # the fuzz runs every command through to its result, and to its refusals
    assert {command for command, rc in codes if rc != 2} == set(flags)
    assert {command for command, rc in codes if rc == 2} == set(flags)
