"""The benchmark's workloads, and the child process that runs one
repetition of one of them in a fresh interpreter.

A repetition sets up its inputs from the workload seed, runs the timed body
(the calls into ordspec and nothing else) and checks every output it timed.
The checks run outside the timed calls and never call the function whose
output they check: oracle results are compared with the closed forms, and
closed-form results with the benchmark's own arithmetic.

    python3 perfbench/workloads.py --workload oracle-enum --seed 1 --rep 0 \\
        --cache-root DIR --launched-at T [--tiny] [--setup-only] \\
        [--trace-out FILE]

prints one JSON object on its last line of standard output.  `T` is the
parent's `time.monotonic()` just before it started this process, so
`setup_s` covers interpreter start-up, `import ordspec` and input generation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
import time

from tracing import NullTracer, Tracer


def su4_order(q: int) -> int:
    """|SU4(q)| = q^6 (q^2 - 1)(q^3 + 1)(q^4 - 1)."""
    return q**6 * (q**2 - 1) * (q**3 + 1) * (q**4 - 1)


def classical_order(family: str, n: int, q: int) -> int:
    """Order of the simple group S2n(q), O2n+1(q) or O±2n(q), from the
    classical product formulas (independent of ordspec.primegraph)."""
    if family in ("Sp", "Bn"):
        prod = math.prod(q ** (2 * i) - 1 for i in range(1, n + 1))
        return q ** (n * n) * prod // math.gcd(2, q - 1)
    eps = 1 if family == "Dplus" else -1
    prod = math.prod(q ** (2 * i) - 1 for i in range(1, n))
    return (
        q ** (n * (n - 1)) * (q**n - eps) * prod // math.gcd(4, q**n - eps)
    )


def closed_form_grid(qs, n_max: int) -> list[tuple[str, int, int, str]]:
    """(family, n, q, part) for Sp and Bn full spectra and for Dplus and
    Dminus p'-spectra, 2 <= n <= n_max."""
    grid = []
    for q in qs:
        for n in range(2, n_max + 1):
            if (n, q) != (2, 2):  # S4(2) is not simple: no closed form
                grid.append(("Sp", n, q, "full"))
            if q % 2 and n >= 3:  # O2n+1(q) with even q is S2n(q)
                grid.append(("Bn", n, q, "full"))
            if n >= 4:
                grid.append(("Dplus", n, q, "p-prime"))
                grid.append(("Dminus", n, q, "p-prime"))
    return grid


# Per workload, its `full` inputs and the `tiny` ones the self-test uses.
# Expected spectra are given either as the closed form of a simple group
# (family, n, q) or, where no closed form applies, as literal generators.
SPECS = {
    "oracle-enum": {
        # (family, dim, q, matrix group order, centre size, expected)
        "full": {"groups": [
            ("Sp", 4, 3, 51840, 2, {"closed_form": ("Sp", 2, 3)}),
            # PSU4(2) is isomorphic to S4(3)
            ("SU", 4, 2, 25920, 1, {"closed_form": ("Sp", 2, 3)}),
        ]},
        "tiny": {"groups": [
            ("GOplus", 4, 2, 72, 1, {"gens": (4, 6)}),
            # Sp4(2) is isomorphic to S6
            ("Sp", 4, 2, 720, 1, {"gens": (4, 5, 6)}),
        ]},
    },
    "oracle-sample": {
        # (family, dim, q, words per repetition, expected); words are taken
        # modulo the central scalars, so Sp6(3) samples S6(3)
        "full": {"groups": [
            ("Sp", 6, 3, 1000, {"closed_form": ("Sp", 3, 3)}),
            ("Sp", 4, 4, 1000, {"closed_form": ("Sp", 2, 4)}),
            ("SU", 4, 8, 1000, {"divides": su4_order(8)}),
        ]},
        "tiny": {"groups": [
            ("Sp", 4, 3, 36, {"closed_form": ("Sp", 2, 3)}),
            ("GOplus", 4, 2, 36, {"divides": 72}),
        ]},
    },
    "closed-form": {
        "full": {
            "q": (2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048, 4096,
                  3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 243),
            "n_max": 12,
            "coclique_size": 3,
            "suite_checks": 208,
            "zsigmondy_q": 50,
            "zsigmondy_n": 40,
            "zsigmondy_gaps": [(2, 6)],
        },
        "tiny": {
            "q": (2, 3, 4, 5),
            "n_max": 5,
            "coclique_size": 3,
            "suite_checks": 208,
            "zsigmondy_q": 10,
            "zsigmondy_n": 12,
            "zsigmondy_gaps": [(2, 6)],
        },
    },
}

# The workload's unit of work, reported as items_per_s (items per second of
# the calls that do them) and printed under this name.
ITEM_METRIC = {
    "oracle-enum": "enum_elems_per_s",
    "oracle-sample": "samples_per_s",
    "closed-form": "graphs_per_s",
}


class Ops:
    """Operations attempted and failed in one repetition, with the first
    few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def _expected_gens(expected: dict):
    from ordspec import spectra

    if "closed_form" in expected:
        return spectra.spectrum(spectra.group_id(*expected["closed_form"])).gens
    return tuple(expected["gens"])


# ---------------------------------------------------------------------------
# set-up: input generation from the seed, before timing starts


def setup(workload: str, spec: dict, seed: int, rep: int, cache_root: str):
    rng = random.Random(f"{seed}:{rep}")
    if workload == "oracle-enum":
        groups = list(spec["groups"])
        rng.shuffle(groups)
        out = []
        for fam, dim, q, order, centre, expected in groups:
            cache_dir = os.path.join(cache_root, f"{fam}{dim}q{q}")
            os.makedirs(cache_dir)
            out.append((fam, dim, q, order, centre,
                        _expected_gens(expected), cache_dir))
        return out
    if workload == "oracle-sample":
        from ordspec import oracle

        out = []
        for fam, dim, q, count, expected in spec["groups"]:
            check = (
                ("divides", expected["divides"]) if "divides" in expected
                else ("spectrum", _expected_gens(expected))
            )
            out.append((
                f"{fam}{dim}({q})",
                oracle.standard_generators(fam, dim, q),
                oracle.central_scalars(fam, dim, q),
                count,
                rng.randrange(2**31),
                check,
            ))
        return out
    if workload == "closed-form":
        from ordspec import spectra, verify

        # Shuffle the order of the q values, and the groups within each q,
        # but keep each q's groups together: they share cyclotomic values,
        # and sympy's factor cache keeps only the last 1000 entries, so a
        # full shuffle would make the factoring cost depend on the seed.
        blocks: dict[int, list] = {}
        for item in closed_form_grid(spec["q"], spec["n_max"]):
            blocks.setdefault(item[2], []).append(item)
        qs = sorted(blocks)
        rng.shuffle(qs)
        grid = []
        for q in qs:
            rng.shuffle(blocks[q])
            grid += blocks[q]
        graphs = [
            (spectra.group_id(fam, n, q), fam, n, q, part,
             classical_order(fam, n, q))
            for fam, n, q, part in grid
        ]
        return {"graphs": graphs, "suite": verify.default_config(), **spec}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# timed bodies: only the ordspec calls are inside the timers


def _enum_body(inputs, tracer) -> dict:
    from ordspec import oracle

    ops = Ops()
    wall = items = item_s = 0.0
    for fam, dim, q, order, centre, gens, cache_dir in inputs:
        label = f"{fam}{dim}({q})"
        try:
            with tracer.span(f"bench.enumerate.{label}"):
                t0 = time.perf_counter()
                got = oracle.enumerate_group(fam, dim, q, cache_dir=cache_dir)
                t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - any exception is a failure
            ops.record(f"{label}: enumeration raised {exc!r}")
            continue
        wall += t1 - t0
        item_s += t1 - t0
        items += got[0]
        g_order, g_centre, g_spec = got
        written = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
        tracer.count("oracle.cache.writes", len(written))
        if (g_order, g_centre) != (order, centre):
            ops.record(f"{label}: order/centre {g_order}/{g_centre}, "
                       f"expected {order}/{centre}")
        elif g_spec.gens != gens:
            ops.record(f"{label}: spectrum {g_spec.gens}, closed form {gens}")
        elif len(written) != 1:
            ops.record(f"{label}: {len(written)} cache files written, not 1")
        else:
            ops.record(None)
        try:
            with tracer.span(f"bench.readback.{label}"):
                t0 = time.perf_counter()
                back = oracle.enumerate_group(fam, dim, q, cache_dir=cache_dir)
                t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001
            ops.record(f"{label}: cache read-back raised {exc!r}")
            continue
        wall += t1 - t0
        if (back[0], back[1], back[2].gens, back[2].part) != (
            g_order, g_centre, g_spec.gens, g_spec.part
        ):
            ops.record(f"{label}: cache read-back {back} differs from {got}")
        else:
            ops.record(None)
    return {"wall_s": wall, "items": items, "item_s": item_s, "ops": ops}


def _sample_body(inputs, tracer) -> dict:
    from ordspec import oracle

    ops = Ops()
    wall = items = 0.0
    for label, gens, centre, count, seed, (kind, target) in inputs:
        try:
            with tracer.span(f"bench.sample.{label}"):
                t0 = time.perf_counter()
                orders = oracle.sample_orders(gens, count, seed, centre=centre)
                t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001
            ops.record(f"{label}: sampling raised {exc!r}")
            continue
        wall += t1 - t0
        items += count
        if kind == "divides":
            bad = [o for o in orders if target % o]
        else:
            bad = [o for o in orders if not any(g % o == 0 for g in target)]
        if not orders or list(orders) != sorted(set(orders)) or bad:
            ops.record(f"{label}: orders {orders} fail the {kind} check "
                       f"at {bad}")
        else:
            ops.record(None)
    return {"wall_s": wall, "items": items, "item_s": wall, "ops": ops}


def _vertex_error(graph, order: int, p: int, part: str) -> str | None:
    """None when the vertices are exactly the prime divisors of the order
    (other than p for a p'-graph)."""
    from sympy import isprime

    rest = order
    for r in graph.vertices:
        if rest % r or not isprime(r) or (part != "full" and r == p):
            return f"vertex {r} is not an admissible prime divisor"
        while rest % r == 0:
            rest //= r
    if part != "full":
        while rest % p == 0:
            rest //= p
    if rest != 1:
        return f"order has prime divisors {rest} missing from the vertices"
    return None


def _coclique_error(graph, cocliques, size: int) -> str | None:
    edges = set(graph.edges)
    verts = set(graph.vertices)
    for c in cocliques:
        if len(c) != size or list(c) != sorted(set(c)) or not verts.issuperset(c):
            return f"coclique {c} is not a set of {size} vertices"
        for i in range(size):
            for j in range(i + 1, size):
                if (c[i], c[j]) in edges:
                    return f"coclique {c} holds the edge {c[i]}-{c[j]}"
    return None


def _closed_form_body(inputs, tracer) -> dict:
    from ordspec import primegraph, verify, zsigmondy

    ops = Ops()
    wall = item_s = 0.0
    size = inputs["coclique_size"]
    for gid, fam, n, q, part, order in inputs["graphs"]:
        label = f"{fam}({n},{q})"
        try:
            with tracer.span(f"bench.graph.{label}"):
                t0 = time.perf_counter()
                fact = primegraph.group_order(gid)
                graph = primegraph.build_graph(gid, part)
                cocliques = primegraph.find_cocliques(graph, size)
                t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001
            ops.record(f"{label}: raised {exc!r}")
            continue
        wall += t1 - t0
        item_s += t1 - t0
        if fact.value != order:
            ops.record(f"{label}: group_order {fact.value}, formula {order}")
            continue
        ops.record(
            _vertex_error(graph, order, gid.p, part)
            or _coclique_error(graph, cocliques, size)
        )
    try:
        with tracer.span("bench.suite"):
            t0 = time.perf_counter()
            reports = verify.run_suite(inputs["suite"])
            t1 = time.perf_counter()
        wall += t1 - t0
        passing = sum(1 for r in reports if r.passed)
        want = inputs["suite_checks"]
        ops.record(
            None if passing == len(reports) == want
            else f"suite: {passing} of {len(reports)} reports pass, "
                 f"expected {want} passing"
        )
    except Exception as exc:  # noqa: BLE001
        ops.record(f"suite raised {exc!r}")
    try:
        with tracer.span("bench.zsigmondy"):
            t0 = time.perf_counter()
            gaps = [
                (q, n)
                for q in range(2, inputs["zsigmondy_q"] + 1)
                for n in range(3, inputs["zsigmondy_n"] + 1)
                if not zsigmondy.has_primitive_prime_divisor(q, n)
            ]
            t1 = time.perf_counter()
        wall += t1 - t0
        want = [tuple(g) for g in inputs["zsigmondy_gaps"]]
        ops.record(None if gaps == want
                   else f"zsigmondy gaps {gaps}, expected {want}")
    except Exception as exc:  # noqa: BLE001
        ops.record(f"zsigmondy sweep raised {exc!r}")
    return {
        "wall_s": wall,
        "items": len(inputs["graphs"]),
        "item_s": item_s,
        "ops": ops,
    }


BODIES = {
    "oracle-enum": _enum_body,
    "oracle-sample": _sample_body,
    "closed-form": _closed_form_body,
}


def body(workload: str, inputs, tracer=None) -> dict:
    """Run the timed body once; returns wall_s, items, item_s and ops."""
    return BODIES[workload](inputs, tracer or NullTracer())


# ---------------------------------------------------------------------------
# child process entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--cache-root", required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    import ordspec  # noqa: F401 - timed: most of it is importing sympy
    from ordspec import arith, oracle, primegraph, spectra, verify, zsigmondy

    import_s = time.monotonic() - t0
    spec = SPECS[args.workload]["tiny" if args.tiny else "full"]
    inputs = setup(args.workload, spec, args.seed, args.rep, args.cache_root)
    out = {"setup_s": time.monotonic() - args.launched_at, "import_s": import_s}
    if not args.setup_only:
        tracer = NullTracer()
        if args.trace_out:
            tracer = Tracer(f"{args.workload}-seed{args.seed}-rep{args.rep}")
            tracer.install({
                "arith": arith, "oracle": oracle, "primegraph": primegraph,
                "spectra": spectra, "verify": verify, "zsigmondy": zsigmondy,
            })
        res = body(args.workload, inputs, tracer)
        ops = res.pop("ops")
        out.update(res)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        out.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
        if args.trace_out:
            out["layers"] = tracer.summary()
            tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
