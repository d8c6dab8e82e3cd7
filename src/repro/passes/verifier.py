"""The IR verifier: structural invariants checked between passes.

A growing tuner fleet lowers and rewrites millions of kernels; a pass
that silently produces malformed IR corrupts every downstream stage
(mis-priced candidates, wrong functional results, executor crashes far
from the cause).  The verifier makes the contract explicit: after every
pipeline stage the kernel must satisfy

1. **declared buffers** -- every DMA / GEMM / zero-fill references an
   SPM buffer declared in the kernel's allocs, and every DMA tile
   access names a tensor of the compute seed;
2. **well-formed loop nesting** -- loop variables are not shadowed by
   nested loops, and every variable a DMA offset uses is bound by an
   enclosing loop; SPM allocations appear only at the kernel root;
3. **SPM capacity** (once ``spm-plan`` is established) -- the coalesced
   per-CPE plan of the allocs still fits the 64 KB scratch pad, so no
   optimizer pass grew the footprint past what the scheduler validated;
4. **consistent double-buffer phases** -- a pipelined loop only streams
   into double-buffered buffers, and no buffer is streamed by two
   nested pipelined loops (each buffer has exactly two phase copies);
5. **DMA geometry** (once ``dma-geometry`` is established) -- every DMA
   node carries its inferred per-CPE descriptor geometry.

:func:`check_kernel` returns the violations as strings;
:class:`~repro.passes.manager.PassManager` raises
:class:`~repro.errors.PassVerificationError` naming the offending pass
when the list is non-empty.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional

from ..dsl.compute import ComputeDef
from ..errors import SpmCapacityError
from ..ir.nodes import (
    AllocSpmNode,
    DmaCgNode,
    ForNode,
    GemmOpNode,
    KernelNode,
    Node,
    ZeroSpmNode,
)
from ..machine.config import MachineConfig, default_config
from ..machine.dma import MEM_TO_SPM
from ..optimizer.memplan import plan_spm
from .base import DMA_GEOMETRY, SPM_PLANNED, Pass, PassContext

#: invariants enforced unconditionally when check_kernel is called
#: standalone (a finished kernel should satisfy everything).
ALL_INVARIANTS: FrozenSet[str] = frozenset({SPM_PLANNED, DMA_GEOMETRY})


class Violations(list):
    """The violation messages :func:`check_kernel` found, in report
    order; the list also carries ``nodes``, the kernel's IR node count
    (the figure :func:`~repro.ir.visitors.count_nodes` gives), taken by
    the same traversal."""

    nodes: int = 0


def check_kernel(
    kernel: KernelNode,
    *,
    compute: Optional[ComputeDef] = None,
    config: Optional[MachineConfig] = None,
    established: Iterable[str] = ALL_INVARIANTS,
) -> Violations:
    """All structural-invariant violations of a kernel (empty = valid).

    One recursive visit of the body checks every invariant and counts
    the nodes; messages are reported grouped by invariant, in the order
    of the module docstring (buffer refs, loop nesting, double-buffer
    phases, SPM capacity, DMA geometry), each group in pre-order.
    """
    cfg = config or default_config()
    held = set(established)
    allocs = {a.name for a in kernel.allocs}
    tensors = compute.tensors if compute is not None else None
    check_geometry = DMA_GEOMETRY in held
    refs: List[str] = []
    nesting: List[str] = []
    geometry: List[str] = []
    # one record per pipelined loop, pre-order: [var, fills per
    # streamed buffer, records of the enclosing pipelined loops]
    pipelined: List[list] = []
    count = 0

    def visit(node: Node, bound: FrozenSet[str], stream, outer: tuple) -> None:
        # ``stream``: record of the innermost enclosing loop if it is
        # pipelined (transfers under a nested loop belong to that loop)
        nonlocal count
        count += 1
        if isinstance(node, DmaCgNode):
            access = node.access
            if node.spm not in allocs:
                refs.append(
                    f"DMA targets undeclared SPM buffer {node.spm!r} "
                    f"(allocs: {sorted(allocs)})"
                )
            if tensors is not None and access.buffer not in tensors:
                refs.append(
                    f"DMA accesses unknown tensor {access.buffer!r} "
                    f"(tensors: {sorted(tensors)})"
                )
            free = access.variables() - bound
            if free:
                nesting.append(
                    f"DMA access of {access.buffer!r} uses unbound "
                    f"loop variable(s) {sorted(free)}"
                )
            if stream is not None and node.direction == MEM_TO_SPM:
                fills = stream[1]
                fills[node.spm] = fills.get(node.spm, 0) + 1
            if check_geometry and node.geometry is None:
                geometry.append(
                    f"DMA of {access.buffer!r} -> {node.spm!r} has no "
                    "inferred geometry"
                )
            return
        if isinstance(node, ZeroSpmNode):
            if node.spm not in allocs:
                refs.append(
                    f"zero_spm targets undeclared SPM buffer {node.spm!r}"
                )
            return
        if isinstance(node, GemmOpNode):
            for role, name in (
                ("A", node.a_spm), ("B", node.b_spm), ("C", node.c_spm)
            ):
                if name not in allocs:
                    refs.append(
                        f"gemm_op operand {role} references undeclared "
                        f"SPM buffer {name!r}"
                    )
            return
        if isinstance(node, AllocSpmNode):
            nesting.append(
                f"SPM alloc {node.name!r} nested in the kernel body "
                "(allocs belong on the kernel root)"
            )
        elif isinstance(node, ForNode):
            if node.var in bound:
                nesting.append(
                    f"loop variable {node.var!r} shadowed by a nested loop"
                )
            bound = bound | {node.var}
            if node.pipelined:
                stream = [node.var, {}, outer]
                pipelined.append(stream)
                outer = (*outer, stream)
            else:
                stream = None
        for child in node.children():
            visit(child, bound, stream, outer)

    visit(kernel.body, frozenset(), None, ())
    out = Violations(refs)
    out.extend(nesting)
    out.extend(_phase_violations(pipelined, kernel.allocs))
    if SPM_PLANNED in held:
        try:
            plan_spm(kernel, cfg)
        except SpmCapacityError as exc:
            out.append(f"SPM plan violates capacity: {exc}")
    out.extend(geometry)
    # the kernel root and its allocs sit outside the visited body
    out.nodes = count + 1 + len(kernel.allocs)
    return out


def _phase_violations(
    pipelined: List[list], allocs: List[AllocSpmNode]
) -> List[str]:
    """Double buffering gives each streamed buffer exactly two phase
    copies (one filling, one computing), so:

    * a pipelined loop streams only into double-buffered buffers;
    * one iteration fills each buffer at most once (a second fill
      would clobber the first tile before its GEMM consumes it);
    * no buffer is streamed by two *nested* pipelined loops -- the two
      pipelines' phase assignments would race over the same two
      copies.  Sequential (sibling) pipelined loops are fine: each
      runs its pipeline to completion before the next starts.

    ``pipelined`` holds the visit's per-loop records in pre-order.
    """
    out: List[str] = []
    declared = {a.name for a in allocs}
    double_buffered = {a.name for a in allocs if a.double_buffered}
    for var, streamed, outer in pipelined:
        # innermost enclosing pipelined loop streaming each buffer
        active = {s: o_var for o_var, o_streamed, _ in outer for s in o_streamed}
        for spm, fills in streamed.items():
            if spm in declared and spm not in double_buffered:
                out.append(
                    f"pipelined loop {var!r} streams into {spm!r} "
                    "which has no double-buffer reservation"
                )
            if fills > 1:
                out.append(
                    f"pipelined loop {var!r} fills {spm!r} "
                    f"{fills} times per iteration: no free phase copy "
                    "to prefetch into"
                )
            if spm in active:
                out.append(
                    f"buffer {spm!r} streamed by nested pipelined "
                    f"loops ({active[spm]!r} and {var!r}): phase "
                    "assignments race"
                )
    return out


class VerifyPass(Pass):
    """Explicit verification stage (the manager also interleaves the
    same checks automatically after every pass when ``verify=True``)."""

    name = "verify"

    def run(self, ctx: PassContext, kernel: Optional[KernelNode]):
        from ..errors import PassVerificationError

        if kernel is None:
            return None
        violations = check_kernel(
            kernel,
            compute=ctx.compute,
            config=ctx.config,
            established=ctx.established,
        )
        if violations:
            raise PassVerificationError(self.name, violations)
        return None
