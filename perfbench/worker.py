"""One benchmark process: set up, then run whole rounds of ops in a closed loop.

Started by ``run.py`` in a fresh interpreter.  It prints ``READY <t>`` with
the CLOCK_MONOTONIC time at which the first op could start (so the parent
can measure set-up from the moment it spawned this process), then, unless
``--setup-only``, runs the workload and prints one JSON line of results.

A round is a fixed mix of ops, one or more from each stratum of the
workload's pool (see ``make_reference.py``); the seed shuffles every stratum
and the order inside each round.  Whole rounds are run, so every run has the
same mix whatever the seed: a new round starts while the run is expected to
end nearer ``--seconds`` than a round earlier.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import tracing  # noqa: E402

OPS_BUDGET_S = 120.0  # keeps a run, set-up included, well inside 180 s


def rounds(ref: dict, seed: int):
    """Yield the rounds of one run; inputs never repeat inside a run except
    for the CLI workload, whose README lines are its whole pool."""
    rng = random.Random(seed)
    items: dict[str, dict[str, list]] = {}
    for op in ref["ops"]:
        items.setdefault(op["stratum"], {}).setdefault(op.get("group", op["id"]), []).append(op)
    strata = {s: list(groups.values()) for s, groups in items.items()}
    for groups in strata.values():
        rng.shuffle(groups)
    i = 0
    while True:
        batch = []
        for stratum, count in sorted(ref["round"].items()):
            groups = strata[stratum]
            lo = 0 if ref.get("reuse") else i * count
            if lo + count > len(groups):
                return
            for g in groups[lo:lo + count]:
                batch.extend(g)
        rng.shuffle(batch)
        yield batch
        i += 1


def input_key(workload: str, op: dict):
    if workload == "continuum":
        return tuple(op["z"])
    if workload == "lattice":
        return (tuple(op["z"]), op["xi"], tuple(op["points"]), op["nmax"])
    return None


def machine() -> dict:
    import platform

    import mpmath
    import mpmath.libmp
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def cli_import_s(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import zmeasures.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, check=True)
    return float(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import zmeasures
    from zmeasures.errors import ZMeasuresError

    src = os.path.join(args.root, "src")
    if os.path.commonpath([os.path.abspath(zmeasures.__file__), src]) != src:
        print(f"zmeasures imported from {zmeasures.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference", f"{args.workload}.json")) as f:
        ref = json.load(f)
    plan = rounds(ref, args.seed)
    first = next(plan, None)
    if first is None:
        print(f"pool of {args.workload} is too small for one round", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_dir = os.path.join(args.root, ".perfbench")
    env = ops.child_env(args.root)
    if args.workload == "cli":
        prefix = ops.python_cli_prefix()
        if args.trace:
            os.makedirs(out_dir, exist_ok=True)
            span_file = os.path.join(out_dir, f"cli-spans-{os.getpid()}.json")
            prefix = [sys.executable, os.path.join(HERE, "clitrace.py"), span_file, "--"]

        def run(op):
            return ops.run_cli(op, prefix, env)
    else:
        run = getattr(ops, f"run_{args.workload}")
    print("READY", time.monotonic(), flush=True)
    if args.setup_only:
        return 0

    seen, repeats, records = set(), 0, []
    t0 = time.monotonic()
    n_rounds = 0
    batch = first
    while batch is not None:
        for op in batch:
            key = input_key(args.workload, op)
            if key is not None:
                repeats += key in seen
                seen.add(key)
            if tracer:
                tracer.op = op["id"]
            rec = {"id": op["id"], "error": None}
            t = time.perf_counter()
            try:
                with ops.time_limit():
                    got = run(op)
            except ZMeasuresError as exc:
                rec["status"], rec["error"] = "refused", type(exc).__name__
            except ops.OpTimeout as exc:
                rec["status"], rec["error"] = "timeout", str(exc)
            except Exception as exc:  # a crash is reported, not raised
                rec["status"], rec["error"] = "crashed", f"{type(exc).__name__}: {exc}"
            else:
                reason = ops.check(args.workload, op, got)
                if reason:
                    rec["status"], rec["error"] = "mismatch", reason
                else:
                    rec["status"] = "unverified" if "refused" in op["expect"] else "ok"
            rec["s"] = time.perf_counter() - t
            records.append(rec)
            if tracer and args.workload == "cli":
                with open(span_file) as f:
                    child = json.load(f)
                os.remove(span_file)
                tracer.merge(child, op["id"])
                rec["import_s"] = child["import_s"]
        n_rounds += 1
        elapsed = time.monotonic() - t0
        per_round = elapsed / n_rounds
        if elapsed + 0.5 * per_round > args.seconds or elapsed + per_round > OPS_BUDGET_S:
            break
        batch = next(plan, None)
    wall = time.monotonic() - t0

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "rounds": n_rounds,
        "pool_exhausted": batch is None,
        "wall_s": wall,
        "peak_rss_mb": rss_kb / 1024.0,
        "input_repeats": repeats,
        "ops": records,
    }
    if tracer:
        data = tracer.dump()
        layers = tracing.layer_metrics(data)
        good = sum(r["status"] in ("ok", "unverified") for r in records)
        layers["trace.ops_per_s"] = good / wall
        if args.workload == "cli":
            layers["cli.import_s"] = statistics.median(r["import_s"] for r in records)
            for name, _ in ops.CLI_COMMANDS:
                layers[f"cli.{name}_s"] = statistics.median(r["s"] for r in records if r["id"] == name)
        else:
            layers["cli.import_s"] = cli_import_s(env)
            for name, _ in ops.CLI_COMMANDS:
                layers[f"cli.{name}_s"] = 0.0
        result["layers"] = layers
        result["errors"] = data["errors"]
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{name}.json"), "w") as f:
        json.dump(result, f)
    if tracer:
        with open(os.path.join(out_dir, f"spans-{name}.json"), "w") as f:
            json.dump(data, f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
