"""Run one benchmark workload against the checkout's ``src/qkdauth``.

    python3 perfbench/run.py --workload transcript_auth --seed 1 --seconds 20 --trace 0

Workloads: transcript_auth, bulk_auth, key_growing, pool_cli (see
workloads.py).  With ``--trace 0`` the run times every op beside the same
op on the frozen copy of the library in ``frozen/`` and prints every
end-to-end metric; with ``--trace 1`` it alternates blocks of untraced and
traced ops and prints the per-layer metrics of the traced ones beside the
tracing overhead.  Every op's output is checked; the command exits 1 if any check
failed and 2 if the program is missing.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  The full
result, with environment, parameters and sample counts, is written to
``perfbench/out/``, and a traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

from layers import HOOKS, METRICS, TARGETS, TraceView
from tracer import SETUP_OP, Tracer
from workloads import FROZEN, REPO, SRC, WORKLOADS, Outcome, load_frozen, load_program

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 15   # cold set-ups per run, each in a fresh interpreter; setup_s is the fastest
MIN_OPS = 32      # ops per run even when --seconds has passed
TRACE_BLOCK = 8   # traced runs alternate blocks of this many untraced and traced ops
COUNT_OPS = 8     # counts cover this many traced ops, so they repeat exactly per seed
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# The final line's end-to-end metrics.  Apart from setup_s they compare
# each op with the same op on the frozen copy, run right beside it: the
# speed of a shared host swings by a factor of up to 1.7 over seconds to
# minutes, which the absolute times (printed beside them) follow and the
# ratios cancel.  op_tail_rel is printed but left out: the tail ops of
# pool_cli are fsync stalls, and its spread over seeds stayed near 0.13.
END_TO_END = ("setup_s", "op_p50_rel", "ops_per_s_rel")


# -- environment ------------------------------------------------------------------

def _git_commit() -> "str | None":
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = REPO / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(root: Path, package: str) -> str:
    h = hashlib.sha256()
    for path in sorted((root / package).rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _filesystem(path: Path) -> str:
    real = os.path.realpath(path)
    best = ("", "unknown", "unknown")
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                device, mount, fstype = line.split()[:3]
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[0]):
                    best = (mount, fstype, device)
    except OSError:
        return "unknown"
    return f"{best[1]} ({best[2]} on {best[0]})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(pool_dir: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(SRC, "qkdauth"),
        "frozen_sha256": _source_digest(FROZEN, "qkdauth_frozen"),
        "pool_filesystem": _filesystem(pool_dir),
    }


# -- measuring ----------------------------------------------------------------------

def measure_setup(name: str, seed: int, probe: int) -> float:
    """Seconds of one cold set-up in a fresh interpreter."""
    workdir = OUT / f"probe-{name}-{os.getpid()}-{probe}"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)],
            cwd=REPO, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def tail(samples: "list[float]") -> "tuple[float, float]":
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _timed(w, inp, tracer=None, op=None) -> "tuple[int, Outcome]":
    """Run one op of workload ``w``; its nanoseconds and its check."""
    if tracer:
        tracer.begin(op)
    error = None
    t_start = perf_counter_ns()
    try:
        out = w.run(inp)
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        error = exc
    t_end = perf_counter_ns()
    if tracer:
        tracer.end()
    if error is None:
        return t_end - t_start, w.check(inp, out)
    traceback.print_exception(error, file=sys.stderr)
    return t_end - t_start, Outcome([f"{type(error).__name__}: {error}"], 0, 0)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_reps: int = SETUP_REPS, min_ops: int = MIN_OPS) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    w = WORKLOADS[name](seed, workdir)
    # An untraced run pairs every op with the same op on the frozen copy.
    frozen = None if trace else WORKLOADS[name](seed, OUT / f"work-{name}-{os.getpid()}-frozen")
    tracer = Tracer() if trace else None

    t0 = perf_counter()
    w.q = load_program()
    if tracer:
        tracer.prepare(list(TARGETS), HOOKS)
        tracer.install()
        tracer.begin(SETUP_OP)
    try:
        w.build()
    finally:
        if tracer:
            tracer.end("setup")
            tracer.uninstall()
    main_setup_s = perf_counter() - t0
    w.after_setup()
    if frozen:
        frozen.q = load_frozen()
        frozen.build()
        frozen.after_setup()

    records: list[tuple[int, bool, Outcome]] = []
    frozen_ns: list[int] = []
    facts: dict[int, dict] = {}
    installed = False
    # The set-up probes are spread over the run, between ops and outside the
    # measured time.  setup_s is the fastest of them: a set-up cannot be
    # paired with the frozen copy's the way an op is, and the fastest probe
    # of a run follows the host's slow stretches least.  Between two
    # ten-seed sets in which the host slowed by 39%, the median of
    # transcript_auth set-ups moved by 32% and the fastest by 15%.
    setup_samples: list[float] = []
    probe_s = 0.0
    start = perf_counter()
    i = 0
    try:
        while i < min_ops or perf_counter() - start - probe_s < seconds:
            if (len(setup_samples) < setup_reps
                    and perf_counter() - start - probe_s >= seconds * len(setup_samples) / setup_reps):
                t_probe = perf_counter()
                setup_samples.append(measure_setup(name, seed, len(setup_samples)))
                probe_s += perf_counter() - t_probe
            traced = tracer is not None and (i // TRACE_BLOCK) % 2 == 1
            if traced != installed:
                (tracer.install if traced else tracer.uninstall)()
                installed = traced
            inp = w.next_input()
            if frozen:
                # Which side runs first alternates, so neither gains from
                # the other having warmed the caches.
                f_inp = frozen.next_input()
                if i % 2:
                    f_ns, f_outcome = _timed(frozen, f_inp)
                ns, outcome = _timed(w, inp)
                if not i % 2:
                    f_ns, f_outcome = _timed(frozen, f_inp)
                frozen_ns.append(f_ns)
                outcome.failures += [f"frozen copy: {msg}" for msg in f_outcome.failures]
            else:
                ns, outcome = _timed(w, inp, tracer if traced else None, i)
            records.append((ns, traced, outcome))
            facts[i] = outcome.facts
            i += 1
    finally:
        if installed:
            tracer.uninstall()
    setup_samples += [measure_setup(name, seed, k) for k in range(len(setup_samples), setup_reps)]
    params = w.params()
    env = environment(workdir)
    w.cleanup()
    if frozen:
        frozen.cleanup()

    attempted = len(records)
    failures = [f"op {j}: {msg}" for j, (_, _, o) in enumerate(records) for msg in o.failures]
    failed = sum(1 for _, _, o in records if o.failures)
    untraced = [(ns, o) for ns, traced, o in records if not traced]
    op_ms = [ns / 1e6 for ns, _ in untraced]
    op_s = sum(op_ms) / 1e3
    tail_ms, tail_pct = tail(op_ms)
    bits = [o.message_bits for _, o in untraced]
    e2e = {
        "setup_s": {"value": min(setup_samples), "unit": "s",
                    "samples": len(setup_samples), "median": statistics.median(setup_samples),
                    "all": setup_samples,
                    "main_process_s": main_setup_s},
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms", "samples": len(op_ms)},
        "op_tail_ms": {"value": tail_ms, "unit": "ms", "samples": len(op_ms),
                       "percentile": tail_pct},
        "ops_per_s": {"value": len(op_ms) / op_s, "unit": "1/s", "samples": len(op_ms)},
        "rounds_per_s": {"value": sum(o.rounds for _, o in untraced) / op_s, "unit": "1/s",
                         "samples": len(op_ms)},
        "auth_mbit_s": {"value": None if None in bits else sum(bits) / op_s / 1e6,
                        "unit": "Mbit/s", "samples": len(op_ms)},
        "error_rate": {"value": failed / attempted, "unit": "fraction", "samples": attempted},
    }
    if frozen:
        f_ms = [ns / 1e6 for ns in frozen_ns]
        f_tail_ms, _ = tail(f_ms)
        n = len(op_ms)
        e2e.update({
            "op_p50_rel": {"value": statistics.median(a / b for a, b in zip(op_ms, f_ms)),
                           "unit": "ratio", "samples": n},
            "op_tail_rel": {"value": tail_ms / f_tail_ms, "unit": "ratio", "samples": n,
                            "percentile": tail_pct},
            "ops_per_s_rel": {"value": sum(f_ms) / sum(op_ms), "unit": "ratio", "samples": n},
            "frozen_op_p50_ms": {"value": statistics.median(f_ms), "unit": "ms", "samples": n},
            "frozen_ops_per_s": {"value": n / sum(f_ms) * 1e3, "unit": "1/s", "samples": n},
        })
    result = {
        "workload": name, "why": w.why, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, one client, one thread",
        "params": params,
        "environment": env,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures[:10],
        "end_to_end": e2e,
    }
    if tracer:
        traced_ops = [j for j, (_, t, _) in enumerate(records) if t]
        traced_p50 = statistics.median(records[j][0] / 1e6 for j in traced_ops)
        view = TraceView(tracer, traced_ops, traced_ops[:COUNT_OPS], facts,
                         overhead_ratio=traced_p50 / e2e["op_p50_ms"]["value"])
        per_layer = {}
        for m in METRICS:
            value = m.value(view)
            state = ("absent" if any(s in tracer.absent for s in m.spans)
                     else "not reached" if value is None else "measured")
            per_layer[m.name] = {"value": value, "unit": m.unit, "state": state,
                                 "moves": m.moves, "contract": m.contract}
        op_span = view.ops.get("op", {"total_ns": 0, "self_ns": 0})
        result["trace_summary"] = {
            "traced_ops": len(traced_ops), "count_ops": len(traced_ops[:COUNT_OPS]),
            "spans": tracer.recorded, "spans_dropped": tracer.dropped, "absent": tracer.absent,
            "op_ms": op_span["total_ns"] / max(1, len(traced_ops)) / 1e6,
            "unattributed_self_ms": op_span["self_ns"] / max(1, len(traced_ops)) / 1e6,
        }
        result["per_layer"] = per_layer
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        result["trace_summary"]["spans_file"] = str(spans_path.relative_to(REPO))
    return result


# -- reporting ------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"ops {result['attempted']}  failed {result['failed']}")
    print(f"params {json.dumps(result['params'])}")
    env = result["environment"]
    print(f"python {env['python']}  nproc {env['nproc']}  commit {env['git_commit']}  "
          f"pool fs {env['pool_filesystem']}")
    print(f"{'end-to-end metric':<22}{'value':>14}  {'unit':<9}{'samples':>8}  note")
    for name, m in result["end_to_end"].items():
        note = ""
        if name in ("op_tail_ms", "op_tail_rel"):
            note = f"p{m['percentile']:.2f}, {TAIL_BEYOND} samples beyond"
        elif name == "setup_s":
            note = (f"fastest cold set-up; median {m['median']:.4g} s, "
                    f"this process {m['main_process_s']:.4f} s")
        elif m["value"] is None:
            note = "not applicable to this workload"
        print(f"{name:<22}{_fmt(m['value']):>14}  {m['unit']:<9}{m['samples']:>8}  {note}")
    if "per_layer" in result:
        ts = result["trace_summary"]
        print(f"traced ops {ts['traced_ops']} (counts over the first {ts['count_ops']}), "
              f"spans {ts['spans']} (+{ts['spans_dropped']} not kept), traced op {ts['op_ms']:.4g} ms of which "
              f"{ts['unattributed_self_ms']:.4g} ms outside traced calls")
        print(f"{'per-layer metric':<42}{'value':>14}  {'unit':<7}moves")
        for name, m in result["per_layer"].items():
            value = m["state"] if m["state"] != "measured" else _fmt(m["value"])
            print(f"{name:<42}{value:>14}  {m['unit']:<7}{m['moves']}")
    for line in result["failures"]:
        print(f"FAILED {line}")


def contract_line(result: dict) -> dict:
    if result["trace"]:
        metrics = {name: {"value": m["value"] or 0.0, "unit": m["unit"]}
                   for name, m in result["per_layer"].items() if m["contract"]}
    else:
        metrics = {name: {"value": result["end_to_end"][name]["value"],
                          "unit": result["end_to_end"][name]["unit"]} for name in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qkdauth" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'qkdauth'} is missing", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_report(result)
    print(f"result file {path.relative_to(REPO)}")
    print(json.dumps(contract_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
