"""Property-based differential validation: any legal in-space schedule
of any operator family must produce outputs the NumPy reference agrees
with (bit-tolerantly), for GEMM and every convolution method."""

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import CandidatePipeline, RunConfig, validate_candidate
from repro.ops import conv_explicit, conv_implicit, conv_winograd
from repro.ops.conv_common import ConvParams
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize

MAX_CANDIDATES = 8


@functools.lru_cache(maxsize=None)
def candidates_for(kind: str):
    """A small pool of legal optimized candidates per operator family
    (cached: the pool is deterministic, hypothesis only picks from it)."""
    if kind == "gemm":
        compute = gemm_compute(48, 40, 56)
        space = gemm_space(compute, quick=True)
    elif kind == "implicit":
        params = ConvParams(batch=2, ni=8, no=8, ri=10, ci=10)
        compute = conv_implicit.make_compute(params)
        space = conv_implicit.make_space(params, quick=True)
    elif kind == "explicit":
        params = ConvParams(batch=1, ni=4, no=8, ri=8, ci=8)
        compute = conv_explicit.make_compute(params)
        space = conv_explicit.make_space(params, quick=True)
    elif kind == "winograd":
        params = ConvParams(batch=1, ni=8, no=8, ri=10, ci=10)
        compute = conv_winograd.make_compute(params)
        space = conv_winograd.make_space(params, quick=True)
    else:  # pragma: no cover - exhaustive kinds above
        raise ValueError(kind)
    pipeline = CandidatePipeline(compute, space)
    pool = list(pipeline.candidates(limit=MAX_CANDIDATES))
    assert pool, f"no legal candidates for {kind}"
    return pool


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["gemm", "implicit", "explicit", "winograd"]),
    index=st.integers(min_value=0, max_value=MAX_CANDIDATES - 1),
    seed=st.integers(min_value=0, max_value=3),
)
def test_in_space_strategies_match_reference(kind, index, seed):
    pool = candidates_for(kind)
    candidate = pool[index % len(pool)]
    report = validate_candidate(candidate, seed=seed, sanitize=SANITIZE)
    assert report.max_abs_err <= report.atol + report.rtol
    assert report.cycles > 0
    assert report.tensors
