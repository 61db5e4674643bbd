"""Every op of the benchmark's reference pools gives its stored result.

The ops are run and checked by ``perfbench/ops.py`` itself (its ``run_*``
and ``check``), loaded from its file, so this test and the benchmark's
correctness gate judge a result alike.  Ops the reference refused have
no stored value; ``check`` passes them on any finite result.

The same replay also pins every float: the pool's digest hashes, in pool
order, each op's id with the ``float.hex`` of every value it returns, or
with the name of the error it raised, and must equal the digest stored in
``tests/golden/reference_pools.json``.  A change that moves a float on
purpose records the new digest there and says why.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("perfbench_ops", ROOT / "perfbench" / "ops.py")
ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ops)

DIGESTS = json.loads((ROOT / "tests" / "golden" / "reference_pools.json").read_text())


def _hexes(value) -> list[str]:
    """``float.hex`` of every float in a result, in key and list order."""
    if isinstance(value, dict):
        return [h for v in value.values() for h in _hexes(v)]
    if isinstance(value, list):
        return [h for v in value for h in _hexes(v)]
    return [float.hex(value)]


@pytest.mark.parametrize("workload", ["continuum", "lattice", "ladder"])
def test_reference_pool_ops_match(workload):
    reference = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    assert reference["ops"]
    run = getattr(ops, f"run_{workload}")
    failures = []
    digest = hashlib.sha256()
    for op in reference["ops"]:
        try:
            got = run(op)
            line = [op["id"], *_hexes(got)]
            reason = ops.check(workload, op, got)
        except Exception as exc:
            line = [op["id"], type(exc).__name__]
            reason = f"raised {type(exc).__name__}: {exc}"
        digest.update(" ".join(line).encode() + b"\n")
        if reason is not None:
            failures.append(f"{op['id']}: {reason}")
    assert not failures, failures
    assert digest.hexdigest() == DIGESTS[workload]
