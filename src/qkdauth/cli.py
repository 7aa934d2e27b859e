"""Command-line interface.

Exit codes: 0 on success, 1 when a verification fails or a simulated
session is terminated by attack detection, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from decimal import Context, Decimal
from fractions import Fraction

from .bits import Bits
from .hashing import OtpReuseError, Tag, compose_tag, find_field_params, verify_tag
from .planner import (PUBLISHED_LREC_DEVIATIONS, CostInput, as_fraction, format_table,
                      make_plan, plan as derive_plan, relative_cost, table_one)
from .poolfile import new_pool, round_mask, save_pool
from .simulator import (ATTACK_STRATEGIES, AdversaryConfig, collision_census,
                        forgery_experiment, parse_adversary, run_session,
                        strong_uniformity_census, toeplitz_xor_census)

TABLE_MU_MBITS = (1, 4, 16, 64, 256)
TABLE_W = (31, 63)

DEFAULT_EPS = "1e-12"
DEFAULT_W = 63
DEFAULT_MU = 4096


def _parse_mu(text: str) -> int:
    t = text.strip().lower()
    try:
        return int(t[:-4]) * 10**6 if t.endswith("mbit") else int(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a bit count or '<n>Mbit': {text!r}") from None


def _parse_adversary(text: str) -> AdversaryConfig:
    try:
        return parse_adversary(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_message(path: str, msg_bits: "int | None") -> Bits:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return Bits.from_bytes(data, msg_bits)
    except ValueError:  # only a given --msg-bits can fail
        lo, hi = max(8 * len(data) - 7, 0), 8 * len(data)
        why = (f"must be in {lo}..{hi} for a {len(data)}-byte message" if not lo <= msg_bits <= hi
               else f"{msg_bits} cuts set bits off the message's last byte")
        raise ValueError(f"--msg-bits {why}") from None


def _parse_tag(text: str, tau: int) -> Tag:
    try:
        return Tag(Bits.from_hex(text, tau))
    except ValueError:
        pad = f" with the last {-tau % 8} bits zero" if tau % 8 else ""
        raise ValueError(f"--tag must be {(tau + 7) // 8 * 2} hex digits{pad} "
                         f"for tau={tau}") from None


def _sci(x: Fraction) -> str:
    """``x`` as ``%.6e``: from its float where a normal float holds it, and
    from x itself, exactly rounded, below that range, where the float would
    lose digits or round to 0."""
    f = float(x)
    if f >= sys.float_info.min or not x:
        return f"{f:.6e}"
    return f"{Context(prec=7).divide(Decimal(x.numerator), Decimal(x.denominator)):.6e}"


def cmd_plan(args: argparse.Namespace) -> int:
    if args.table:
        rows = table_one(args.eps_auth, [m * 10**6 for m in TABLE_MU_MBITS], TABLE_W)
        print(format_table(rows, machine=args.machine))
        return 0
    if args.mu is None or args.w is None:
        raise ValueError("plan: --mu and --w are required unless --table is given")
    p = derive_plan(args.eps_auth, args.mu, args.w)
    if args.machine:
        print(f"{p.mu},{p.w},{p.lam},{p.l_rec},{p.l_otp}")
    else:
        print(f"tau={p.tau} lambda={p.lam} l_rec={p.l_rec} l_otp={p.l_otp} "
              f"eps_achieved={_sci(p.eps_achieved)}")
        published = PUBLISHED_LREC_DEVIATIONS.get((p.w, p.mu))
        if published not in (None, p.l_rec):
            print(f"note: published tables list l_rec={published} for this "
                  f"(w, mu); the key-length formula gives {p.l_rec}.")
    return 0


def cmd_primes(args: argparse.Namespace) -> int:
    if args.w_min > args.w_max:
        raise ValueError("primes: --w-min must not exceed --w-max")
    fps = [find_field_params(w) for w in range(args.w_min, args.w_max + 1)]
    print("\n".join(f"{fp.w} {fp.delta}" for fp in fps))
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    ci = CostInput(eps_auth=as_fraction(args.eps_auth), l_sift=args.l_sift,
                   eta_pa=args.eta_pa)
    res = relative_cost(ci)
    print(f"tau={res.tau} l_sec={res.l_sec!r} cost={res.cost!r}")
    return 0


def _build_plan_args(args: argparse.Namespace):
    if args.tau is not None:
        return make_plan(tau=args.tau, lam=1 if args.lam is None else args.lam, w=args.w,
                         mu=args.mu)
    if args.lam is not None:
        raise ValueError("--lam needs --tau; without it --eps-auth sets lam")
    return derive_plan(DEFAULT_EPS if args.eps_auth is None else args.eps_auth, args.mu, args.w)


def cmd_init_pool(args: argparse.Namespace) -> int:
    p = _build_plan_args(args)
    pool = new_pool(p, rounds=args.rounds, seed=args.seed)
    save_pool(args.out, pool)
    print(f"pool written: {args.out} (w={p.w} lam={p.lam} tau={p.tau} mu={p.mu} "
          f"rounds={args.rounds})")
    return 0


# tag/verify read the message before locking the pool, and print once the mask is durable.
def cmd_tag(args: argparse.Namespace) -> int:
    m = _read_message(args.message, args.msg_bits)
    with round_mask(args.key_pool, args.round) as pool:
        tag = compose_tag(m, pool.recycled_pre, pool.otp[args.round], pool.plan,
                          find_field_params(pool.plan.w))
    print(tag.to_hex())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    m = _read_message(args.message, args.msg_bits)
    with round_mask(args.key_pool, args.round) as pool:
        ok = verify_tag(m, _parse_tag(args.tag, pool.plan.tau), pool.recycled_pre,
                        pool.otp[args.round], pool.plan, find_field_params(pool.plan.w))
    print("ok" if ok else "FAIL")
    return 0 if ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    p = _build_plan_args(args)
    fp = find_field_params(p.w)
    ledger = run_session(args.rounds, p, fp, adversary=args.adversary, seed=args.seed,
                         eps_pred=args.eps_pred, eps_store=args.eps_store,
                         eps_qkd=args.eps_qkd)
    print(ledger.to_text())
    return 1 if ledger.terminated else 0


def cmd_attack_stats(args: argparse.Namespace) -> int:
    p = make_plan(tau=args.tau, lam=args.lam, w=args.w, mu=args.mu)
    if 0 < args.trials < 10**4:  # forgery_experiment rejects trials < 1
        print(f"attack-stats: {args.trials} trials resolve rates only down to "
              f"~{10 / args.trials:.1e}; consider at least 10000", file=sys.stderr)
    stats = forgery_experiment(p, strategy=args.strategy, trials=args.trials, seed=args.seed)
    bound = float(p.eps_achieved) if args.strategy != "impersonate" else 2.0 ** -p.tau
    print(f"strategy={args.strategy} trials={stats.trials} successes={stats.successes} "
          f"rate={stats.rate!r} wilson99=({stats.wilson_lo!r},{stats.wilson_hi!r}) "
          f"bound={bound!r}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = {
        "xor-universality alpha=4 beta=2": toeplitz_xor_census(alpha=4, beta=2),
        "poly collision census w=3 mu=5 lam=1": collision_census(w=3, mu=5, lam=1),
        "poly collision census w=3 mu=5 lam=2": collision_census(w=3, mu=5, lam=2),
        "strong-uniformity census w=2 lam=1 tau=2 mu=3":
            strong_uniformity_census(w=2, lam=1, tau=2, mu=3),
    }
    for name, res in results.items():
        print(f"{name}: worst {res.worst} bound {res.bound} over {res.cases} pairs "
              f"-> {'ok' if res.ok else 'VIOLATION'}")
    return 0 if all(res.ok for res in results.values()) else 1


def _add_plan_source_flags(sp: argparse.ArgumentParser) -> None:
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--eps-auth",
                        help=f"target failure probability (decimal, default {DEFAULT_EPS})")
    sp.add_argument("--mu", type=_parse_mu, default=DEFAULT_MU,
                    help="message bound in bits, or '<n>Mbit'")
    sp.add_argument("--w", type=int, default=DEFAULT_W, help="chunk width (default %(default)s)")
    source.add_argument("--tau", type=int, help="tag length, instead of --eps-auth planning")
    sp.add_argument("--lam", type=int, help="parallel instances (only with --tau, default 1)")


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with '-' or '-.' and a digit as a value,
    so ``--eps-qkd -1e-9`` means ``--eps-qkd=-1e-9``; argparse alone takes
    it for an option name unless it has the form -5 or -.5.  No option name
    starts with a digit, and the subparsers share this class.

    A flag value that argparse rejects (its ``type=`` fails, it is not one of
    the ``choices``, it is missing) raises ``ArgumentError``, which ``main``
    reports in one line."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, exit_on_error=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  ``main`` parses
    every argv against it, so no command may change it after it is built."""
    ap = _Parser(prog="qkdauth", description="Recycled-key authentication for QKD "
                 "post-processing: planning, tagging, simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="derive scheme parameters")
    sp.add_argument("--eps-auth", default=DEFAULT_EPS)
    sp.add_argument("--mu", type=_parse_mu, help="message bound in bits, or '<n>Mbit'")
    sp.add_argument("--w", type=int, default=None)
    sp.add_argument("--table", action="store_true", help="print the full parameter grid")
    sp.add_argument("--machine", action="store_true", help="comma-separated output")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("primes", help="chunk-width prime moduli deltas")
    sp.add_argument("--w-min", type=int, required=True)
    sp.add_argument("--w-max", type=int, required=True)
    sp.set_defaults(func=cmd_primes)

    sp = sub.add_parser("cost", help="relative authentication cost of one round")
    sp.add_argument("--eps-auth", required=True)
    sp.add_argument("--l-sift", type=int, required=True)
    sp.add_argument("--eta-pa", type=float, required=True)
    sp.set_defaults(func=cmd_cost)

    sp = sub.add_parser("init-pool", help="write a fresh key-pool file")
    _add_plan_source_flags(sp)
    sp.add_argument("--rounds", type=int, default=8)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_init_pool)

    sp = sub.add_parser("tag", help="generate a tag, consuming the round's OTP key")
    sp.add_argument("--key-pool", required=True)
    sp.add_argument("--round", type=int, required=True)
    sp.add_argument("--message", required=True, help="file path or - for stdin")
    sp.add_argument("--msg-bits", type=int, default=None,
                    help="explicit message bit length (default: 8 * file size)")
    sp.set_defaults(func=cmd_tag)

    sp = sub.add_parser("verify", help="check a tag, consuming the round's OTP key")
    sp.add_argument("--key-pool", required=True)
    sp.add_argument("--round", type=int, required=True)
    sp.add_argument("--message", required=True)
    sp.add_argument("--msg-bits", type=int, default=None)
    sp.add_argument("--tag", required=True, help="hex tag to check")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="run a key-growing session")
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--adversary", type=_parse_adversary, default="none",
                    help="none | quantum:K | tamper:K | block:K | "
                         "substitute:K[:random|best-guess] | impersonate:K")
    sp.add_argument("--seed", type=int, default=0)
    _add_plan_source_flags(sp)
    sp.add_argument("--eps-pred", default="0")
    sp.add_argument("--eps-store", default="0")
    sp.add_argument("--eps-qkd", default="0")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("attack-stats", help="statistical forgery experiment")
    sp.add_argument("--tau", type=int, required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--mu", type=_parse_mu, required=True)
    sp.add_argument("--lam", type=int, default=1)
    sp.add_argument("--trials", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategy", default="random", choices=ATTACK_STRATEGIES)
    sp.set_defaults(func=cmd_attack_stats)

    sp = sub.add_parser("selftest", help="exhaustive small-instance hash-family oracles")
    sp.set_defaults(func=cmd_selftest)

    return ap


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, OtpReuseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
