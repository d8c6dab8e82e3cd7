"""Property-based tests on the end-to-end GEMM pipeline: any legal
schedule must compute the exact product, and timing must be positive
and deterministic."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen import compile_candidate
from repro.dsl import ScheduleSpace
from repro.engine import RunConfig
from repro.errors import IllegalCandidateError
from repro.ops.gemm import make_compute
from repro.scheduler import Candidate, lower_strategy

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize

dims = st.integers(min_value=5, max_value=96)
tiles = st.integers(min_value=4, max_value=64)


@st.composite
def gemm_case(draw):
    m, n, k = draw(dims), draw(dims), draw(dims)
    tm = min(draw(tiles), m)
    tn = min(draw(tiles), n)
    tk = min(draw(tiles), k)
    vec = draw(st.sampled_from(["M", "N"]))
    a_layout = draw(st.sampled_from(["row_major", "col_major"]))
    b_layout = draw(st.sampled_from(["row_major", "col_major"]))
    return (m, n, k, tm, tn, tk, vec, a_layout, b_layout)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=gemm_case())
def test_any_legal_schedule_is_exact(case):
    m, n, k, tm, tn, tk, vec, a_layout, b_layout = case
    compute = make_compute(m, n, k)
    sp = ScheduleSpace(compute)
    sp.split("M", [tm])
    sp.split("N", [tn])
    sp.split("K", [tk])
    sp.vectorize([vec])
    sp.spm_layout("a", [a_layout])
    sp.spm_layout("b", [b_layout])
    strat = sp.strategy()
    try:
        kernel = lower_strategy(compute, strat)
    except IllegalCandidateError:
        return  # pruned: nothing to check
    ck = compile_candidate(
        Candidate(strat, kernel, compute), sanitize=SANITIZE
    )
    rng = np.random.default_rng(hash(case) % (2**32))
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    res = ck.run({"A": a, "B": b})
    np.testing.assert_allclose(
        res.outputs["C"], a @ b, rtol=1e-3, atol=1e-2
    )
    assert res.report.cycles > 0
    # determinism
    again = ck.run({"A": a, "B": b}).report.cycles
    assert again == res.report.cycles
