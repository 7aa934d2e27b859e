"""Every library name that perfbench uses still exists in the library.

perfbench reports a traced name it cannot find as absent, and only its own
tests fail on that; a name its workloads read fails only when the benchmark
runs.  These tests make such a removal fail here as well.  They read
``TARGETS`` from the source of ``perfbench/layers.py`` and the names read
from ``self.q``, and the calls made through it, from the source of
``perfbench/workloads.py``, so they neither import nor run anything under
``perfbench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_targets():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} assigns no TARGETS")


def resolves(module_name, qualname):
    """The tracer's lookup: the owner by attribute, the name in its own namespace."""
    owner_name, _, attr = qualname.rpartition(".")
    module = importlib.import_module(f"qkdauth.{module_name}")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner is not None and vars(owner).get(attr) is not None


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    absent = [f"{m}.{q}" for m, q in targets if not resolves(m, q)]
    assert absent == []


def library_path(node, aliases):
    """The names below ``self.q`` that an attribute chain reads, through a
    local alias if it starts at one, e.g. ``("hashing", "RecycledKey",
    "from_bits")``; None for a chain that does not read the library."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return aliases[node.id] + tuple(reversed(names))
    if names and names[-1] == "q" and isinstance(node, ast.Name) and node.id == "self":
        return tuple(reversed(names[:-1])) or None
    return None


def workload_methods():
    """Each function in ``perfbench/workloads.py`` with its local aliases of
    the library, such as ``H = self.q.hashing`` or ``P, H = self.q.protocol,
    self.q.hashing``, mapped to the paths they read."""
    for func in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple) else [(target, value)])
                for name, chain in pairs:
                    path = library_path(chain, aliases)
                    if isinstance(name, ast.Name) and path:
                        aliases[name.id] = path
        yield func, aliases


def workload_reads():
    """Every ``<module>.<name>[.<attr>]`` that a workload method reads from
    ``self.q``, directly or through an alias."""
    reads = set()
    for func, aliases in workload_methods():
        reads.update(aliases.values())
        inner = {id(n.value) for n in ast.walk(func) if isinstance(n, ast.Attribute)}
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                path = library_path(node, aliases)
                if path:
                    reads.add(path)
    return reads


def workload_calls():
    """Every call a workload method makes into the library, directly or
    through an alias, as (path, positional count, keyword names)."""
    calls = set()
    for func, aliases in workload_methods():
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and (path := library_path(node.func, aliases)):
                assert not any(isinstance(a, ast.Starred) for a in node.args), path
                assert all(k.arg for k in node.keywords), path  # no **kwargs
                calls.add((path, len(node.args), tuple(k.arg for k in node.keywords)))
    return calls


def library_object(path):
    obj = importlib.import_module(f"qkdauth.{path[0]}")
    for name in path[1:]:
        obj = getattr(obj, name)
    return obj


def reads_from_the_library(path):
    try:
        library_object(path)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_name_a_workload_reads_resolves():
    reads = workload_reads()
    assert {("hashing", "RecycledKey", "from_bits"), ("protocol", "Direction", "A2B"),
            ("poolfile", "load_pool"), ("hashing", "compose_tag"), ("bits", "Bits")} <= reads
    absent = [".".join(p) for p in sorted(reads) if not reads_from_the_library(p)]
    assert absent == []


def test_every_call_a_workload_makes_binds():
    """A workload's call still binds to the library's signature: a dropped
    or renamed parameter that perfbench passes fails here, not only when the
    benchmark runs."""
    calls = workload_calls()
    assert {(("simulator", "run_session"), 3, ("adversary", "seed", "secret_bits")),
            (("hashing", "compose_tag"), 5, ()),
            (("hashing", "verify_tag"), 6, ()),
            (("hashing", "RecycledKey", "from_bits"), 4, ())} <= calls
    unbound = []
    for path, npos, keywords in sorted(calls):
        try:
            inspect.signature(library_object(path)).bind(*[None] * npos,
                                                          **dict.fromkeys(keywords))
        except TypeError as e:
            unbound.append(f"{'.'.join(path)}: {e}")
    assert unbound == []


def pool_reads():
    """The attribute chains that ``PoolCli.after_setup`` reads off the pool
    that ``load_pool`` returns, e.g. ``("recycled", "value")``, and off each
    of its OTP masks (``k`` in ``pool.otp.items()``)."""
    cls = next(node for node in ast.parse(WORKLOADS.read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == "PoolCli")
    func = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "after_setup")
    reads = {"pool": set(), "k": set()}
    inner = {id(n.value) for n in ast.walk(func) if isinstance(n, ast.Attribute)}
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in reads:
                reads[node.id].add(tuple(reversed(names)))
    return reads


def read(obj, chain):
    for name in chain:
        obj = getattr(obj, name)
    return obj


def test_pool_cli_reads_resolve_on_a_loaded_pool(tmp_path):
    """perfbench's ``pool_cli`` set-up reads the plan, the recycled key's
    value and each OTP mask's value off ``load_pool``'s result.  The check
    above follows only ``self.q`` chains, so it cannot see these reads; this
    test makes renaming a pool field fail here, not only in the benchmark."""
    from qkdauth.cli import main
    from qkdauth.poolfile import load_pool

    reads = pool_reads()
    assert {("plan",), ("recycled", "value"), ("otp", "items"), ("plan", "tau")} <= reads["pool"]
    assert reads["k"] == {("bits", "value")}
    path = tmp_path / "alice.pool"
    assert main(["init-pool", "--eps-auth", "1e-12", "--mu", "4096", "--w", "63",
                 "--rounds", "4", "--seed", "1", "--out", str(path)]) == 0
    pool = load_pool(str(path))
    for chain in reads["pool"]:
        read(pool, chain)
    plan = pool.plan
    assert (plan.w, plan.tau, plan.mu) == (63, 40, 4096)
    assert 0 <= pool.recycled.value < 1 << plan.l_rec
    masks = {r: read(k, ("bits", "value")) for r, k in pool.otp.items()}
    assert sorted(masks) == [1, 2, 3, 4]
    assert all(0 <= v < 1 << plan.tau for v in masks.values())
