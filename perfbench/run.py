"""zmeasures benchmark: one closed-loop client, one op at a time, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Workloads: continuum, lattice, ladder, cli (see
BENCHMARK.json and perfbench/README.md).  Every process this starts gets a
fresh interpreter, no ZMEASURES_WORKERS and one BLAS thread.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans are written to ``.perfbench/``.  Lines before it,
starting with ``#``, are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops  # noqa: E402

WORKLOADS = ("continuum", "lattice", "ladder", "cli")
SETUP_SAMPLES = 5  # set-up is measured this many times a run; the median is reported
RUN_TIMEOUT_S = 170.0


def spawn(args, root: str, env: dict, setup_only: bool, timeout: float):
    """Run one worker; return (set-up seconds, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", root]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = out.decode().splitlines()
    ready = next(float(line.split()[1]) for line in lines if line.startswith("READY "))
    return ready - t_spawn, (None if setup_only else json.loads(lines[-1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zmeasures", "__init__.py")):
        print("run from the root of a zmeasures checkout: src/zmeasures is missing", file=sys.stderr)
        return 2
    env = ops.child_env(root)
    t_start = time.monotonic()
    setups = [spawn(args, root, env, True, 60.0)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = spawn(args, root, env, False, RUN_TIMEOUT_S - (time.monotonic() - t_start))
    setups.append(setup_s)

    recs = res["ops"]
    by = {s: sum(r["status"] == s for r in recs) for s in ("ok", "unverified", "refused", "timeout", "mismatch", "crashed")}
    good = by["ok"] + by["unverified"]
    failed = len(recs) - good
    correct = by["mismatch"] == 0 and by["crashed"] == 0 and res["input_repeats"] == 0
    end_to_end = {
        "ops_per_s": {"value": good / res["wall_s"], "unit": "1/s"},
        "ok_frac": {"value": good / len(recs), "unit": "fraction"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    print(f"# machine {json.dumps(res['machine'])}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={res['rounds']} "
          f"wall_s={res['wall_s']:.3f} attempted={len(recs)} "
          + " ".join(f"{k}={v}" for k, v in by.items())
          + f" input_repeats={res['input_repeats']}"
          + (" pool_exhausted" if res["pool_exhausted"] else ""))
    print("# " + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in end_to_end.items())
          + f" fail_frac={failed / len(recs):.6g} fraction"
          + f" setup_samples_s={[round(s, 4) for s in setups]}")
    for r in recs:
        if r["status"] not in ("ok", "unverified"):
            print(f"# {r['status']} {r['id']}: {r['error']}")
    if args.trace:
        for e in res["errors"]:
            print(f"# innermost error op={e['op']} layer={e['layer']} call={e['name']} "
                  f"{e['error']}: {e['message'][:100]}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = end_to_end
    print(json.dumps({"correct": correct, "attempted": len(recs), "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("us_per_call") or name.endswith("us_per_partition"):
        return "us"
    if name.endswith("_s") or name.endswith("_s_p50"):
        return "s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "fraction"
    if name.endswith("per_cold_block") or name.endswith("per_assemble"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
