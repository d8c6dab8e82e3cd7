"""Verifier test: several invariants broken by one pass are all
reported, grouped by invariant in the verifier's fixed order (buffer
refs, loop nesting, double-buffer phases, SPM capacity, DMA geometry),
whatever order the damage appears in the IR."""

import dataclasses

import pytest

from repro.errors import PassVerificationError
from repro.ir import DmaCgNode, find_all, transform
from repro.ir.expr import AffineExpr
from repro.ir.nodes import TileAccess
from repro.passes import FunctionPass

from .test_verifier import run_with_breaker


def break_three(ctx, kernel):
    """Damage three different DMAs, in reverse report order: the first
    DMA in pre-order loses its geometry, the second reads an unbound
    loop variable, the last targets an undeclared buffer."""
    dmas = find_all(kernel, DmaCgNode)
    first, second, last = dmas[0], dmas[1], dmas[-1]
    assert len({id(first), id(second), id(last)}) == 3

    def rewrite(node):
        if node is first:
            return dataclasses.replace(node, geometry=None)
        if node is second:
            (off, length), *rest = node.access.dims
            dims = ((off + AffineExpr.var("ghost_var"), length), *rest)
            return dataclasses.replace(
                node, access=TileAccess(node.access.buffer, dims)
            )
        if node is last:
            return dataclasses.replace(node, spm="spm_ghost")
        return None

    return transform(kernel, rewrite)


def test_all_violations_reported_in_order():
    breaker = FunctionPass("break-three", break_three)
    with pytest.raises(PassVerificationError) as err:
        run_with_breaker(breaker, optimize=True)
    assert err.value.pass_name == "break-three"
    violations = err.value.violations
    assert len(violations) == 3
    refs, nesting, geometry = violations
    assert refs.startswith("DMA targets undeclared SPM buffer 'spm_ghost'")
    assert "unbound loop variable(s) ['ghost_var']" in nesting
    assert geometry.endswith("has no inferred geometry")
