"""Golden IR digests: the loop-nest builder's output is pinned.

``test_golden.py`` compares the staged pipeline with
``reference_lower_strategy``, but both share ``_KernelBuilder``, so an
edit to the builder moves both sides at once.  This test compares
against committed digests instead: for a fixed strategy sample of every
operator family (GEMM, implicit, explicit, Winograd and strided conv)
it hashes a canonical rendering of the lowered kernel and of the fully
compiled kernel -- every dataclass field of every node, affine
coefficients sorted by variable -- and checks the hashes against
``golden_ir_digests.json``.

Regenerate the file (only when an IR change is intended) with::

    PYTHONPATH=src python -m tests.passes.test_golden_digests --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.engine import CandidatePipeline
from repro.errors import IllegalCandidateError
from repro.ir.expr import AffineExpr
from repro.ops import conv_explicit, conv_implicit, conv_winograd, strided
from repro.ops.conv_common import ConvParams
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.scheduler import lower_strategy

GOLDEN = Path(__file__).with_name("golden_ir_digests.json")
#: strategies sampled per schedule space (evenly strided over the space)
SAMPLE = 24


def canonical(obj) -> str:
    """Order-independent text of an IR value: dataclasses field by
    field, affine coefficients and dict items sorted."""
    if isinstance(obj, AffineExpr):
        terms = ",".join(f"{v}:{c}" for v, c in sorted(obj.coeffs.items()))
        return f"Affine({obj.const};{terms})"
    if dataclasses.is_dataclass(obj):
        inner = ",".join(
            f"{f.name}={canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(canonical(x) for x in obj)
        return f"{type(obj).__name__}[{inner}]"
    if isinstance(obj, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    return repr(obj)


def ir_digest(kernel) -> str:
    return hashlib.sha256(canonical(kernel).encode()).hexdigest()[:16]


def family_spaces() -> Dict[str, List[Tuple[str, object]]]:
    """``{family: [(space name, ScheduleSpace), ...]}``; small shapes
    with tails and trip-count-1 axes so both loop forms appear."""
    conv = ConvParams(batch=2, ni=16, no=24, ri=10, ci=10, pad=1)
    gemm = gemm_compute(128, 200, 96)
    wino = ConvParams(batch=2, ni=64, no=64, ri=16, ci=16, pad=1)
    stride2 = ConvParams(batch=2, ni=16, no=16, ri=12, ci=12, pad=1, stride=2)
    return {
        "gemm": [("gemm_128x200x96", gemm_space(gemm))],
        "implicit": [("implicit", conv_implicit.make_space(conv))],
        "explicit": [("explicit", conv_explicit.make_space(conv))],
        "winograd": [("winograd", conv_winograd.make_space(wino))],
        "strided": [
            (f"strided_p{ph.pr}{ph.pc}",
             conv_implicit.make_space(ph.params, quick=True))
            for ph in strided.decompose(stride2)
        ],
    }


def compute_digests() -> Dict[str, Dict[str, List[str]]]:
    """``{family: {"<space> <decisions>": [lowered, compiled]}}``."""
    out: Dict[str, Dict[str, List[str]]] = {}
    for family, spaces in family_spaces().items():
        entries: Dict[str, List[str]] = {}
        for space_name, sp in spaces:
            strategies = list(sp.strategies())
            step = max(1, len(strategies) // SAMPLE)
            pipe = CandidatePipeline(sp.compute)
            for strategy in strategies[::step][:SAMPLE]:
                key = f"{space_name} {sorted(strategy.decisions.items())!r}"
                try:
                    lowered = ir_digest(lower_strategy(sp.compute, strategy))
                    compiled = ir_digest(pipe.prepare(strategy).kernel)
                except IllegalCandidateError:
                    lowered = compiled = "illegal"
                entries[key] = [lowered, compiled]
        out[family] = entries
    return out


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.mark.parametrize(
    "family", ["gemm", "implicit", "explicit", "winograd", "strided"]
)
def test_ir_matches_golden_digests(digests, family):
    golden = json.loads(GOLDEN.read_text())[family]
    got = digests[family]
    assert set(got) == set(golden)
    legal = [k for k, (lowered, _) in golden.items() if lowered != "illegal"]
    assert legal, f"{family}: sample holds no legal strategy"
    mismatched = [k for k in golden if got[k] != golden[k]]
    assert not mismatched, f"{family}: IR differs for {mismatched[:3]}"


def test_canonical_sorts_coefficients():
    a = AffineExpr(3, {"x": 2, "y": 1})
    b = AffineExpr(3, {"y": 1, "x": 2})
    assert canonical(a) == canonical(b)
    assert canonical(a) != canonical(AffineExpr(3, {"x": 2, "y": 2}))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.passes.test_golden_digests --write")
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
