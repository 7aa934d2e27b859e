"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They live outside the library's test paths, so its suite does not pay for
them.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types

import pytest

import run
from layers import METRICS
from oracle import field_prime, reference_tag
from tracer import Tracer
from workloads import FROZEN, REPO, WORKLOADS, load_program

CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
# Digest of frozen/qkdauth_frozen, the yardstick of every *_rel metric.
FROZEN_SHA256 = "5ad07cc84ba2b045f0f844bfb9bdd1a15b03179d18269abd81aa0dee390af837"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_prints_every_metric(name, trace):
    result = run.run_workload(name, seed=3, seconds=0, trace=trace, setup_reps=1, min_ops=18)
    assert result["failed"] == 0, result["failures"]
    assert result["end_to_end"]["error_rate"]["value"] == 0
    line = run.contract_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 18
    declared = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    if trace:
        assert set(result["per_layer"]) == {m.name for m in METRICS}
        assert result["trace_summary"]["absent"] == []
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert result["end_to_end"]["frozen_op_p50_ms"]["samples"] == 18


def test_frozen_copy_is_unchanged():
    assert run._source_digest(FROZEN, "qkdauth_frozen") == FROZEN_SHA256


def test_oracle_matches_compose_tag():
    q = load_program()
    H, Bits = q.hashing, q.bits.Bits
    rng = random.Random(7)
    for w, lam, mu, tau in [(5, 2, 40, 6), (31, 3, 1000, 40), (63, 1, 4096, 40)]:
        plan = q.planner.make_plan(tau=tau, lam=lam, w=w, mu=mu)
        fp = H.find_field_params(w)
        assert field_prime(w) == fp.p
        rec = rng.getrandbits(plan.l_rec)
        rk = H.RecycledKey.from_bits(Bits(rec, plan.l_rec), lam, w, tau)
        for length in (0, 1, w - 1, w, mu - 1, mu):
            m, otp = rng.getrandbits(length), rng.getrandbits(tau)
            tag = H.compose_tag(Bits(m, length), rk, H.OtpKey(Bits(otp, tau)), plan, fp)
            assert tag.bits.value == reference_tag(m, length, rec, otp,
                                                   w=w, lam=lam, tau=tau, mu=mu)


@pytest.mark.parametrize("name", ["transcript_auth", "bulk_auth"])
def test_check_catches_a_tag_with_one_flipped_bit(name, tmp_path):
    w = WORKLOADS[name](1, tmp_path)
    w.q = load_program()
    w.build()
    inp = w.next_input()
    inp[0].oracle = True
    tag, ok = w.run(inp)
    assert w.check(inp, (tag, ok)).failures == []
    for bit in (0, w.plan.tau - 1):
        flipped = w.q.hashing.Tag(tag.bits.flip(bit))
        failures = w.check(inp, (flipped, ok)).failures
        assert failures and "oracle" in failures[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def inputs(seed):
        w = WORKLOADS[name](seed, tmp_path)
        return w.key_material, getattr(w, "pool_seed", None), [w.draw() for _ in range(40)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_tracer_reports_missing_names_and_refuses_dunders():
    load_program()
    t = Tracer()
    t.prepare([("hashing", "no_such_function"), ("protocol", "NoSuchClass.append"),
               ("no_such_module", "f"), ("hashing", "compose_tag")])
    assert t.absent == ["hashing.no_such_function", "protocol.NoSuchClass.append",
                        "no_such_module.f"]
    with pytest.raises(ValueError):
        Tracer().prepare([("bits", "Bits.__add__")])


def test_tracer_rebinds_every_importer_and_restores():
    q = load_program()
    original = q.hashing.compose_tag
    t = Tracer()
    t.prepare([("hashing", "compose_tag"), ("bits", "Bits.from_bytes")])
    t.install()
    try:
        assert q.protocol.compose_tag is q.hashing.compose_tag is not original
        assert q.bits.Bits.from_bytes(b"\x80", 1).value == 1
    finally:
        t.uninstall()
    assert q.protocol.compose_tag is original
    assert "from_bytes" in vars(q.bits.Bits) and not t.absent


def test_self_time_excludes_child_spans(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.m")

    def inner():
        sum(range(20000))

    def outer():
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.m", mod)
    t = Tracer(package="fakepkg")
    t.prepare([("m", "inner"), ("m", "outer")])
    t.install()
    t.begin(0)
    mod.outer()
    t.end()
    t.uninstall()
    s = t.summarize({0})
    assert s["m.inner"]["calls"] == 2 and s["m.outer"]["calls"] == 1
    assert s["m.outer"]["self_ns"] == s["m.outer"]["total_ns"] - s["m.inner"]["total_ns"]
    assert s["op"]["self_ns"] + s["m.outer"]["total_ns"] == s["op"]["total_ns"]
    assert t.recorded == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pool_cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_contract_lists_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
