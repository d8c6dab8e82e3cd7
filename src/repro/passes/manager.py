"""PassManager: ordered pass execution with instrumentation + verification.

The manager is the single entry point every consumer shares (both
autotuners, the harness runner, library replay, the codegen executor):
it runs a named pass list in order, times each pass, records the IR
node-count delta, interleaves the structural verifier after every
stage, and charges the total wall time into the owning
:class:`~repro.engine.metrics.EngineMetrics` stage.

Failure semantics:

* :class:`~repro.errors.IllegalCandidateError` propagates untouched --
  a pruned candidate is expected behaviour during enumeration, not a
  broken pipeline;
* a structural violation raises
  :class:`~repro.errors.PassVerificationError` naming the pass that
  just ran, so a malformed rewrite is caught at its source instead of
  corrupting downstream cost models or the executor.

``--dump-ir`` support lives here too: a manager given an
:class:`IRDump` (a run's ``dump_ir``) renders before/after snapshots of
matching passes through :func:`repro.ir.printer.pretty`.
"""

from __future__ import annotations

import sys
import time
from typing import IO, List, Optional, Sequence, Tuple

from ..errors import PassVerificationError
from ..ir.nodes import KernelNode
from ..ir.printer import pretty
from ..ir.visitors import count_nodes
from .base import Pass, PassContext, PassRun
from .verifier import check_kernel


class IRDump:
    """What ``--dump-ir`` prints, shared by every manager of one run.

    ``spec`` is ``"all"`` or a single pass name; ``limit`` caps how many
    manager *runs* get dumped (an autotuning sweep lowers thousands of
    candidates -- dumping the first couple shows the pipeline without
    drowning the terminal).  ``stream`` defaults to stderr so dumps
    never pollute result tables on stdout.
    """

    def __init__(
        self,
        spec: str,
        *,
        limit: int = 2,
        stream: Optional[IO[str]] = None,
    ) -> None:
        self.spec = spec
        self.limit = limit
        self.runs_dumped = 0
        self.stream = stream

    def matches(self, pass_name: str) -> bool:
        return self.spec == "all" or self.spec == pass_name

    def out(self) -> IO[str]:
        return self.stream if self.stream is not None else sys.stderr


class PassManager:
    """Run an ordered list of passes over one kernel.

    ``stage`` names the :class:`~repro.engine.metrics.EngineMetrics`
    stage ("lowering" or "optimization") charged with the run's total
    wall time; per-pass timings always land in ``metrics.passes`` and in
    :attr:`last_trace`.  ``dump`` prints IR around matching passes.
    """

    def __init__(
        self,
        passes: Sequence[Pass],
        *,
        verify: bool = True,
        metrics=None,
        stage: Optional[str] = None,
        dump: Optional[IRDump] = None,
    ) -> None:
        self.passes = list(passes)
        self.verify = verify
        self.metrics = metrics
        self.stage = stage
        self.dump = dump
        self.last_trace: List[PassRun] = []

    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def run(
        self, ctx: PassContext, kernel: Optional[KernelNode] = None
    ) -> KernelNode:
        self.last_trace = []
        dump = self.dump
        # a run only spends dump budget if it contains a matching pass
        # (--dump-ir=prefetch must not be eaten by lowering-only runs)
        dumping = (
            dump is not None
            and dump.runs_dumped < dump.limit
            and any(dump.matches(p.name) for p in self.passes)
        )
        if dumping:
            assert dump is not None
            dump.runs_dumped += 1
        t_run = time.perf_counter()
        # nothing runs between two pass boundaries, so each pass's
        # ``nodes_before`` is the count taken at the previous boundary
        nodes = count_nodes(kernel) if kernel is not None else 0
        try:
            for p in self.passes:
                kernel, nodes = self._run_one(
                    p, ctx, kernel, nodes, dump if dumping else None
                )
        finally:
            if self.metrics is not None and self.stage is not None:
                stage = getattr(self.metrics, self.stage)
                stage.add(time.perf_counter() - t_run)
        if kernel is None:
            raise PassVerificationError(
                self.passes[-1].name if self.passes else "<empty>",
                ["pipeline produced no kernel IR"],
            )
        return kernel

    def _run_one(
        self,
        p: Pass,
        ctx: PassContext,
        kernel: Optional[KernelNode],
        before: int,
        dump: Optional[IRDump],
    ) -> Tuple[Optional[KernelNode], int]:
        if dump is not None and dump.matches(p.name) and kernel is not None:
            print(
                f"// --- IR before pass {p.name!r} ---\n{pretty(kernel)}",
                file=dump.out(),
            )
        t0 = time.perf_counter()
        # IllegalCandidateError propagates untouched: a pruned candidate
        # is expected during enumeration, not a pipeline defect.
        out = p.run(ctx, kernel)
        kernel = out if out is not None else kernel
        dt = time.perf_counter() - t0
        ctx.established.update(p.establishes)

        # the verifier's traversal also counts the nodes
        violations: List[str] = []
        if kernel is None:
            after = 0
        elif self.verify:
            violations = check_kernel(
                kernel,
                compute=ctx.compute,
                config=ctx.config,
                established=ctx.established,
            )
            after = violations.nodes
        else:
            after = count_nodes(kernel)

        self.last_trace.append(
            PassRun(name=p.name, seconds=dt, nodes_before=before, nodes_after=after)
        )
        if self.metrics is not None:
            self.metrics.record_pass(p.name, dt)

        if dump is not None and dump.matches(p.name) and kernel is not None:
            print(
                f"// --- IR after pass {p.name!r} ---\n{pretty(kernel)}",
                file=dump.out(),
            )

        if violations:
            raise PassVerificationError(p.name, violations)
        return kernel, after

    def describe(self) -> str:
        """Human-readable trace of the latest run."""
        if not self.last_trace:
            return "(no passes run)"
        return "\n".join(r.describe() for r in self.last_trace)
