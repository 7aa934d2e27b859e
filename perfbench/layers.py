"""What the traced run wraps, what it counts, and the per-layer metrics.

Each metric names the end-to-end metric and workload it should move, so a
change to one layer can be checked against its prediction.  ``contract``
marks the metrics printed in the traced run's final JSON line: those every
workload reaches, plus counts.  A time that only one workload reaches reads
0 on the others, so it is printed in the table and the result file only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from tracer import SETUP_OP

# (module, qualified name) of every public call the traced run times.
TARGETS = (
    ("bits", "Bits.from_bytes"), ("bits", "constant_time_eq"),
    ("hashing", "find_field_params"), ("hashing", "pad_and_chunk"),
    ("hashing", "multi_poly_hash"), ("hashing", "toeplitz_hash"),
    ("hashing", "compose_tag"), ("hashing", "verify_tag"),
    ("planner", "plan"), ("planner", "make_plan"),
    ("protocol", "Transcript.append"), ("protocol", "harvest_keys"),
    ("protocol", "KeyPool.absorb_harvest"), ("protocol", "KeyPool.promote_rounds"),
    ("protocol", "KeyPool.discard_rounds"),
    ("protocol", "PartyState.finalize_sender"), ("protocol", "PartyState.finalize_verifier"),
    ("rng", "BitGen.take"), ("rng", "BitGen.derive"),
    ("simulator", "MockQkdSource.round"), ("simulator", "run_session"),
    ("poolfile", "parse_pool"), ("poolfile", "dump_pool"), ("poolfile", "save_pool"),
    ("cli", "build_parser"), ("cli", "main"),
)

FRAME_HEADER_BITS = 8 + 64  # direction byte and 64-bit length of each transcript frame


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _count_chunks(c: Counter, args: tuple, kwargs: dict, result) -> None:
    m, w = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "w")
    c["chunks"] += len(result)
    c["useful_chunks"] += -(-(len(m) + 1) // w)  # chunks holding message bits or the pad bit


def _count_frame(c: Counter, args: tuple, kwargs: dict, result) -> None:
    payload = _arg(args, kwargs, 2, "payload")
    bits = 8 * len(payload) if isinstance(payload, bytes) else len(payload)
    c["compound_bits"] += FRAME_HEADER_BITS + bits


def _count_pool(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["pool_bytes"] += len(result)
    c["dumps"] += 1


HOOKS = {
    "hashing.pad_and_chunk": _count_chunks,
    "hashing.compose_tag": lambda c, args, kwargs, result: c.update(tags=1),
    "rng.BitGen.take": lambda c, args, kwargs, result: c.update(bits_drawn=len(result)),
    "protocol.Transcript.append": _count_frame,
    "poolfile.dump_pool": _count_pool,
}


class TraceView:
    """Aggregates of one traced run.

    Times are over every traced op (per-call times also include the
    set-up); counts are over the first traced ops only, a fixed number, so
    that a count repeats exactly for a given seed.
    """

    def __init__(self, tracer, traced_ops: "list[int]", count_ops: "list[int]",
                 facts: "dict[int, dict]", overhead_ratio: float):
        self.n_ops = len(traced_ops)
        self.ops = tracer.summarize(set(traced_ops))
        self.with_setup = tracer.summarize(set(traced_ops) | {SETUP_OP})
        self.prefix = tracer.summarize(set(count_ops))
        self.n_prefix = len(count_ops)
        self.counts: Counter = Counter()
        self.facts: Counter = Counter()
        for op in count_ops:
            self.counts.update(tracer.counts.get(op, Counter()))
            self.facts.update(facts.get(op, {}))
        self.overhead_ratio = overhead_ratio

    def self_ms(self, span: str) -> "float | None":
        s = self.ops.get(span)
        return s["self_ns"] / self.n_ops / 1e6 if s else None

    def call_ms(self, span: str) -> "float | None":
        s = self.with_setup.get(span)
        return s["total_ns"] / s["calls"] / 1e6 if s else None

    def calls(self, span: str) -> int:
        s = self.prefix.get(span)
        return s["calls"] if s else 0

    def per_op(self, n: float) -> "float | None":
        return n / self.n_prefix if self.n_prefix else None


def _ratio(a: float, b: float) -> "float | None":
    return a / b if b else None


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    value: Callable[[TraceView], "float | None"]
    moves: str
    spans: tuple[str, ...] = ()
    contract: bool = False


def _self(span: str, moves: str, contract: bool = False) -> LayerMetric:
    return LayerMetric(f"{span}.self_ms", "ms", lambda v: v.self_ms(span), moves, (span,), contract)


def _call(span: str, moves: str, contract: bool = False, name: str = "") -> LayerMetric:
    return LayerMetric(name or f"{span}.ms", "ms", lambda v: v.call_ms(span), moves, (span,), contract)


GUARD = "none predicted on any workload (guard)"

METRICS = (
    _self("hashing.pad_and_chunk",
          "op_p50_rel on transcript_auth (dominant); ops_per_s_rel on bulk_auth", True),
    _self("hashing.multi_poly_hash", "ops_per_s_rel on bulk_auth", True),
    _self("hashing.toeplitz_hash", GUARD, True),
    _self("hashing.compose_tag", GUARD + ": OTP mask", True),
    _self("hashing.verify_tag", GUARD + ": constant-time compare", True),
    LayerMetric("hashing.chunks_per_tag", "count",
                lambda v: _ratio(v.counts["chunks"], v.counts["tags"]),
                "op_p50_rel on transcript_auth", ("hashing.pad_and_chunk",), True),
    LayerMetric("hashing.useful_chunk_ratio", "ratio",
                lambda v: _ratio(v.counts["useful_chunks"], v.counts["chunks"]),
                "op_p50_rel on transcript_auth", ("hashing.pad_and_chunk",), True),
    _call("hashing.find_field_params", "setup_s on all workloads; op_p50_rel on pool_cli", True),
    _call("planner.plan", "setup_s on all workloads; op_p50_rel on pool_cli", True),
    _call("planner.make_plan", "op_p50_rel on pool_cli"),
    _call("bits.Bits.from_bytes", "op_p50_rel on pool_cli and transcript_auth", True,
          name="bits.from_bytes.ms"),
    _call("bits.constant_time_eq", "op_p50_rel on pool_cli and transcript_auth", True),
    _self("protocol.Transcript.append", "op_p50_rel on transcript_auth"),
    LayerMetric("protocol.compound_bits", "count",
                lambda v: v.per_op(v.counts["compound_bits"]),
                "op_p50_rel on transcript_auth", ("protocol.Transcript.append",), True),
    _call("protocol.harvest_keys", "ops_per_s_rel on key_growing"),
    LayerMetric("protocol.harvest_keys.count", "count",
                lambda v: _ratio(v.calls("protocol.harvest_keys"), v.facts["qkd_rounds"]),
                "ops_per_s_rel on key_growing (calls per round that distilled key)",
                ("protocol.harvest_keys",), True),
    _call("protocol.KeyPool.absorb_harvest", "ops_per_s_rel on key_growing"),
    _call("protocol.KeyPool.promote_rounds", "ops_per_s_rel on key_growing"),
    _call("protocol.KeyPool.discard_rounds", "ops_per_s_rel on key_growing"),
    _self("protocol.PartyState.finalize_sender", "ops_per_s_rel on key_growing"),
    _self("protocol.PartyState.finalize_verifier", "ops_per_s_rel on key_growing"),
    LayerMetric("protocol.verified_key_ratio", "ratio",
                lambda v: _ratio(v.facts["verified_bits"], v.facts["harvested_bits"]),
                "none: external key bits verified / harvested, repeats exactly per seed (guard)",
                (), True),
    _self("rng.BitGen.take", "ops_per_s_rel on key_growing"),
    LayerMetric("rng.bits_drawn", "count", lambda v: v.per_op(v.counts["bits_drawn"]),
                "ops_per_s_rel on key_growing", ("rng.BitGen.take",), True),
    LayerMetric("rng.BitGen.derive.count", "count",
                lambda v: v.per_op(v.calls("rng.BitGen.derive")),
                "ops_per_s_rel on key_growing", ("rng.BitGen.derive",), True),
    _self("simulator.MockQkdSource.round", "ops_per_s_rel on key_growing"),
    _self("simulator.run_session", "ops_per_s_rel on key_growing"),
    _call("poolfile.parse_pool", "op_p50_rel on pool_cli"),
    _call("poolfile.dump_pool", "op_p50_rel on pool_cli"),
    _self("poolfile.save_pool", "op_p50_rel on pool_cli: write + fsync + rename"),
    LayerMetric("poolfile.pool_bytes", "bytes",
                lambda v: _ratio(v.counts["pool_bytes"], v.counts["dumps"]),
                "op_p50_rel on pool_cli", ("poolfile.dump_pool",), True),
    _call("cli.build_parser", "op_p50_rel on pool_cli"),
    _self("cli.main", "op_p50_rel on pool_cli"),
    LayerMetric("trace.overhead_ratio", "ratio", lambda v: v.overhead_ratio,
                "none: traced / untraced op_p50_ms of this run", (), True),
)
