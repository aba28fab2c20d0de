"""Point queries of the affine analysis are answered from one sweep per
basic block; these tests pin that memo to the replay it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.catalog import CATALOG, resolve_kernel
from repro.sass import build_cfg
from repro.sass.affine import AffineAnalysis, AffineEnv

SPECS = sorted(CATALOG)


def _replay_state(aff, index):
    """Reference: the pre-memo ``state_before`` — replay the block from
    its in-state on every query."""
    blk = aff.cfg.block_of_instruction(index)
    regs = dict(aff._in_regs[blk.bid] or {})
    preds = dict(aff._in_preds[blk.bid] or {})
    for i in range(blk.start, index):
        aff._step(aff.program[i], i, regs, preds)
    return regs, preds


class _ReplayAnalysis(AffineAnalysis):
    """Every point query goes through the reference replay."""

    def _state(self, index):
        return _replay_state(self, index)


def _analyses(spec):
    """The symbolic analysis the detectors use and a launch-folded one
    like the predictors' (arbitrary integers for the int/pointer slots)."""
    ck, config, _, _ = resolve_kernel(spec, 128, 4)
    program = ck.program
    cfg = build_cfg(program)
    env = AffineEnv.from_launch(
        ck, config, {slot.offset: 0x1000 * (k + 1)
                     for k, slot in enumerate(ck.params)})
    return program, [AffineAnalysis(program, cfg),
                     AffineAnalysis(program, cfg, env)]


@pytest.mark.parametrize("spec", SPECS)
def test_memo_equals_fresh_replay_at_every_index(spec):
    program, analyses = _analyses(spec)
    for aff in analyses:
        want = [_replay_state(aff, i) for i in range(len(program))]
        steps = []
        step = aff._step
        aff._step = lambda *a: (steps.append(a[1]), step(*a))[1]
        for _ in range(2):
            for index in range(len(program)):
                assert aff.state_before(index) == want[index]
        # each block is swept once, however many queries follow
        assert sorted(steps) == list(range(len(program)))


def test_returned_state_is_a_private_copy():
    program, (aff, _) = _analyses("sgemm:shared")
    index = max(range(len(program)),
                key=lambda i: len(aff.state_before(i)[0]))
    regs, preds = aff.state_before(index)
    want = (dict(regs), dict(preds))
    assert regs, "fixture must have a non-empty state to corrupt"
    regs.clear()
    preds[99] = True
    assert aff.state_before(index) == want
    assert aff.state_before(index) == _replay_state(aff, index)


_SGEMM = _analyses("sgemm:shared_vec")
_HIST = _analyses("histogram:shared")


def _answers(aff, index):
    return aff.address_value(index), aff.guard_expr(index)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), which=st.sampled_from([_SGEMM, _HIST]),
       order=st.sampled_from(["ascending", "descending", "random"]))
def test_query_order_does_not_change_answers(data, which, order):
    """Ascending, descending, repeated and cross-block query orders
    against one memoised analysis agree with the per-query replay."""
    program, (symbolic, _) = which
    n = len(program)
    reference = _ReplayAnalysis(program, symbolic.cfg)
    want = [_answers(reference, i) for i in range(n)]
    queries = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=60))
    if order != "random":
        queries.sort(reverse=order == "descending")
    aff = AffineAnalysis(program, symbolic.cfg)
    for i in queries:
        assert _answers(aff, i) == want[i]
