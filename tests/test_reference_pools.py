"""Every op of the benchmark's reference pools gives its stored result.

The ops are run and checked by ``perfbench/ops.py`` itself (its ``run_*``
and ``check``), loaded from its file, so this test and the benchmark's
correctness gate judge a result alike.  Ops the reference refused have
no stored value; ``check`` passes them on any finite result.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("perfbench_ops", ROOT / "perfbench" / "ops.py")
ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ops)


@pytest.mark.parametrize("workload", ["continuum", "lattice", "ladder"])
def test_reference_pool_ops_match(workload):
    reference = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    assert reference["ops"]
    run = getattr(ops, f"run_{workload}")
    failures = []
    for op in reference["ops"]:
        try:
            reason = ops.check(workload, op, run(op))
        except Exception as exc:
            reason = f"raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op['id']}: {reason}")
    assert not failures, failures
