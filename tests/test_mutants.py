"""Mutants of the code, each with the test cases that must catch it.

Each row is a patch, a module constant set with ``monkeypatch`` or a
function swapped for a mutated copy, and the test cases it must make
fail.  Every case is run under its row's patch and must fail on an
assertion (a ``pytest.raises`` that sees no error counts), so a test that
stops catching what it was written to catch shows here.  A mutated copy
is compiled from the function's source with one string replaced, and the
row fails at once if that string is no longer in the source.
"""

import inspect
import textwrap

import pytest

import test_experiments as experiments_tests
import test_fbm as fbm_tests
import test_paths as paths_tests
import test_sde as sde_tests
import test_seed_batching as batching_tests
from flowlab import experiments, fbm, paths, sde


def mutant(func, old, new):
    """``func`` compiled against its own module's globals with the one ``old`` in its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} is not once in {func.__name__}"
    scope = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"), func.__globals__, scope)
    return scope[func.__name__]


def huge_state_budget(monkeypatch):
    """Every march steps 64-step blocks again, however wide."""
    monkeypatch.setattr(sde, "_STATE_POINTS", 2**62)


def driver_points_2_19(monkeypatch):
    """The sampled marches draw member blocks of 2^19 driver values again."""
    monkeypatch.setattr(experiments, "_DRIVER_POINTS", 2**19)


def sample_points_2_16(monkeypatch):
    """The sampler's workspace at 2^16 normals again."""
    monkeypatch.setattr(fbm, "_SAMPLE_POINTS", 2**16)


def guard_block_stride(monkeypatch):
    """The block loop strides by ``_GUARD_BLOCK`` whatever its blocks hold, so short blocks skip steps."""
    march = mutant(sde._march, "for lo in range(0, steps.size, block_rows):",
                   "for lo in range(0, steps.size, _GUARD_BLOCK):")
    monkeypatch.setattr(sde, "_march", march)
    monkeypatch.setattr(experiments, "_march", march)


def unreplayed_block_error(monkeypatch):
    """A member block's error is raised as it is, without marching the whole batch once more."""
    monkeypatch.setattr(experiments, "_sampled_march", mutant(
        experiments._sampled_march, 'drivers = fbm.sample_paths(spec, x0s.shape[0], method="circulant")', "raise"))


def fresh_component_rngs(monkeypatch):
    """Every member block draws from fresh component generators, so each block repeats the first."""
    monkeypatch.setattr(fbm, "_circulant_batches", mutant(
        fbm._circulant_batches, "_fill_circulant(out, rngs,",
        "_fill_circulant(out, [_component_rng(spec.seed, j) for j in range(spec.components)],"))


def members_from_zero(monkeypatch):
    """Every member block's states are handed out as those of the first members."""
    monkeypatch.setattr(experiments, "_sampled_march", mutant(
        experiments._sampled_march, "members = slice(start, start + drivers.shape[0])",
        "members = slice(0, drivers.shape[0])"))


def screen_margin_one(monkeypatch):
    """The guard's screen allows nothing for the rounding of a norm."""
    monkeypatch.setattr(sde, "_SCREEN_MARGIN", 1.0)


def screen_passes_nan(monkeypatch):
    """The guard's screen returns on a block whose largest component is NaN."""
    monkeypatch.setattr(sde, "_check_block", mutant(
        sde._check_block, "top * math.sqrt(block.shape[-1]) * _SCREEN_MARGIN <= floor",
        "not top * math.sqrt(block.shape[-1]) * _SCREEN_MARGIN > floor"))


def unwindowed_screen(monkeypatch):
    """The guard's screen takes any smallest bound, however near the underflow or overflow of a square."""
    monkeypatch.setattr(sde, "_check_block", mutant(
        sde._check_block, "_SCREEN_WINDOW[0] <= floor <= _SCREEN_WINDOW[1] and ", ""))


def huge_pair_block(monkeypatch):
    """init-continuity marches all of a seed's pairs in one block again."""
    monkeypatch.setattr(experiments, "_PAIR_BLOCK", 10**9)


def pair_block_without_replay(monkeypatch):
    """A pair block whose march raises records its own error, not that of the seed's pairs in one march."""
    monkeypatch.setattr(experiments, "_run_init_continuity", mutant(
        experiments._run_init_continuity, "_pair_differences(flat, c, driver, cfg)", "pass"))


def zero_first_difference(monkeypatch):
    """The pair differences at t = 0 are left at 0.0, not set to x - y."""
    monkeypatch.setattr(experiments, "_pair_differences", mutant(
        experiments._pair_differences, "np.subtract(x0s[0::2], x0s[1::2], out=diffs[0])", "diffs[0] = 0.0"))


def patch_flow_marks(monkeypatch, old, new):
    """``_flow_marks`` with ``old`` replaced by ``new``, in ``sde`` and in ``test_sde``'s import of it."""
    marks = mutant(sde._flow_marks, old, new)
    monkeypatch.setattr(sde, "_flow_marks", marks)
    monkeypatch.setattr(sde_tests, "_flow_marks", marks)


def unnegated_backward_driver(monkeypatch):
    """A backward solve adds the reversed driver's unnegated increments with the drift step -h.

    The values are the same, but -0.0 + 0.0 is +0.0 where -0.0 - 0.0 is -0.0.
    """
    patch_flow_marks(monkeypatch, "times, values = times[::-1], np.negative(values[..., ::-1, :])",
                     "times, values, h, backward = times[::-1], values[..., ::-1, :], -h, False")


def unreversed_backward_times(monkeypatch):
    """A backward solve marches the reversed driver against the times in their own order."""
    patch_flow_marks(monkeypatch, "times, values = times[::-1],", "times, values = times,")


def unordered_scatter(monkeypatch):
    """The states are put back in stepping order, not in the caller's."""
    patch_flow_marks(monkeypatch, "out[slot[reached][:, None], order] = states", "out[slot[reached]] = states")


def unordered_strides(monkeypatch):
    """The members march in stepping order, their strides in the caller's."""
    patch_flow_marks(monkeypatch, "strides = strides[order]", "pass")


def unordered_driver_list(monkeypatch):
    """The members march in stepping order, their drivers in the caller's."""
    patch_flow_marks(monkeypatch, "driver = [driver[i] for i in order]", "pass")


def unchecked_stepping_order(monkeypatch):
    """``_march`` steps members whatever the order of their starts."""
    monkeypatch.setattr(sde_tests, "_march", mutant(
        sde._march, 'raise ValueError("starts must be in stepping order (ascending)")', "pass"))


def negative_zero_lag_sup(monkeypatch):
    """A zero lag sup comes back as -0.0."""
    lag_sup = mutant(paths._lag_sup, "best = 0.0", "best = -0.0")
    monkeypatch.setattr(paths, "_lag_sup", lag_sup)
    monkeypatch.setattr(fbm, "_lag_sup", lag_sup)


def fresh_block_array(monkeypatch):
    """Every block of a march is stepped into an array of its own."""
    march = mutant(sde._march, "block = buffer[: ks.size]", "block = np.empty((ks.size,) + x0s.shape)")
    monkeypatch.setattr(sde, "_march", march)
    monkeypatch.setattr(sde_tests, "_march", march)


def dropped_last_fan_gap(monkeypatch):
    """The smallest fan gap skips the gap between the last two fan points."""
    monkeypatch.setattr(experiments, "_fan_min_gap", mutant(
        experiments._fan_min_gap, "for f in range(2, states.shape[-1]):", "for f in range(2, states.shape[-1] - 1):"))


def blown_pair_blocks(mp):
    """The blown 64-pair byte case, with the patch of its ``blown_driver`` fixture."""
    batching_tests.blow_seed(mp)
    batching_tests.test_a_blown_seed_in_pair_blocks_records_the_one_block_text(64, mp, None)


kernel = sde_tests.TestSteppingKernel()
reductions = sde_tests.TestBlockReductions()
guard = sde_tests.TestGuardScreen()
strided = sde_tests.TestStridedMarch()
sampler = fbm_tests.TestBlockedCirculantBatch()
moments = experiments_tests.TestMomentsExperiment()

# (mutant, case id, case): a case takes the monkeypatch and runs one test case with it
ROWS = [
    (huge_state_budget, "probe-pin", lambda mp: kernel.test_sortedness_probe_working_set_fits_the_state_budget()),
    (driver_points_2_19, "probe-pin", lambda mp: kernel.test_sortedness_probe_working_set_fits_the_state_budget()),
    (driver_points_2_19, "moments-pin", lambda mp: kernel.test_moments_working_set_fits_the_state_budget()),
    (sample_points_2_16, "sampler-pin", lambda mp: sampler.test_workspace_fits_the_normals_budget()),
    (huge_pair_block, "init-continuity-flat-pin",
     lambda mp: kernel.test_init_continuity_working_set_is_flat_in_the_pair_count()),
    (pair_block_without_replay, "blown-64-pair-blocks", blown_pair_blocks),
]
for field in ("builtin:geometric:0.5", "2-D"):
    ROWS.append((zero_first_difference, f"pair-differences-{field}",
                 lambda mp, field=field: kernel.test_pair_differences_equal_the_differences_of_the_full_solve(
                     mp, field, None)))
ROWS.append((fresh_block_array, "shared-buffer", lambda mp: kernel.test_consecutive_march_blocks_share_one_buffer()))
for fan in (3, 8, 9):
    for zeros in (False, True):
        ROWS.append((dropped_last_fan_gap, f"fan-min-gap-{fan}-{zeros}",
                     lambda mp, f=fan, z=zeros: reductions.test_fan_min_gap_equals_the_diff_min(f, z)))
for step in (1, sde._GUARD_BLOCK - 1, sde._GUARD_BLOCK, sde._GUARD_BLOCK + 1, 200):
    ROWS.append((guard_block_stride, f"guard-crossing-{step}",
                 lambda mp, step=step: kernel.test_guard_crossing_message_matches_oracle(mp, step, 1)))
ROWS.append((guard_block_stride, "march-crossings",
             lambda mp: guard.test_march_crossings_keep_their_text(mp, 1)))
for field in ("builtin:geometric:0.5", "2-D"):
    ROWS.append((guard_block_stride, f"pair-differences-{field}",
                 lambda mp, field=field: kernel.test_pair_differences_equal_the_differences_of_the_full_solve(
                     mp, field, 1)))
for coefficients in ("builtin:geometric:0.5", "builtin:sin", "builtin:additive:0.8"):
    for rows, counts in ((None, (300, 600)), (1, (20, 45)), (7, (20, 45))):
        ROWS.append((guard_block_stride, f"probe-{coefficients}-{rows}",
                     lambda mp, c=coefficients, r=rows: kernel.test_probe_matches_oracle(mp, c, r, 1)))
        ROWS.append((guard_block_stride, f"moments-{coefficients}-{rows}",
                     lambda mp, c=coefficients, r=rows, k=counts: kernel.test_moments_match_oracle(mp, c, r, k, 1)))
for spec in ("builtin:geometric:0.5", "builtin:sin"):
    for per_member in (False, True):
        ROWS.append((unnegated_backward_driver, f"zero-sign-{spec}-{per_member}",
                     lambda mp, s=spec, p=per_member: kernel.test_backward_solves_keep_the_sign_of_a_zero_start(s, p)))
for step in (1, sde._GUARD_BLOCK + 1):
    ROWS.append((unreversed_backward_times, f"guard-crossing-{step}",
                 lambda mp, step=step: kernel.test_guard_crossing_message_matches_oracle(mp, step, None)))
for m in (1, 2):
    ROWS.append((unreversed_backward_times, f"mixed-starts-backward-{m}",
                 lambda mp, m=m: kernel.test_mixed_starts_match_single_solves(m, "as-listed", True)))
    ROWS.append((unreversed_backward_times, f"batch-solvers-{m}",
                 lambda mp, m=m: kernel.test_batch_solvers_match_oracle(m)))
ROWS.append((unreversed_backward_times, "strided-crossing-backward",
             lambda mp: strided.test_a_crossing_member_raises_the_error_it_raises_alone(
                 True, 256, [1, 4, 2, 8], (96, 104))))
for backward in (False, True):
    ROWS.append((unordered_scatter, f"mixed-starts-reversed-{backward}",
                 lambda mp, b=backward: kernel.test_mixed_starts_match_single_solves(1, "reversed", b)))
    ROWS.append((unordered_driver_list, f"per-member-drivers-{backward}",
                 lambda mp, b=backward: kernel.test_per_member_drivers_match_one_call_per_driver(1, b)))
    for grid in sorted(sde_tests.TestStridedMarch.GRIDS):
        ROWS.append((unordered_scatter, f"strided-reversed-{backward}-{grid}",
                     lambda mp, b=backward, g=grid: strided.test_each_member_matches_its_decimated_grid(
                         "builtin:sin", b, "shared", g, "reversed")))
        ROWS.append((unordered_strides, f"strided-reversed-{backward}-{grid}",
                     lambda mp, b=backward, g=grid: strided.test_each_member_matches_its_decimated_grid(
                         "builtin:sin", b, "shared", g, "reversed")))
        ROWS.append((unordered_driver_list, f"strided-per-member-{backward}-{grid}",
                     lambda mp, b=backward, g=grid: strided.test_each_member_matches_its_decimated_grid(
                         "builtin:sin", b, "per-member", g, "reversed")))
ROWS.append((unreplayed_block_error, "one-batch-text",
             lambda mp: moments.test_blow_up_in_member_blocks_keeps_the_one_batch_text(mp)))
for rows in ("1", "block-1", "block", "block+1"):
    for m in (1, 3):
        for hurst, n in ((0.75, 100), (0.3, 256)):
            ROWS.append((fresh_component_rngs, f"member-blocks-{rows}-{m}-{hurst}",
                         lambda mp, r=rows, m=m, h=hurst, n=n: sampler.test_member_blocks_concatenate_to_the_batch(
                             r, m, h, n)))
for coefficients in ("builtin:geometric:0.5", "builtin:sin", "builtin:additive:0.8"):
    for rows in (1, 7):
        ROWS.append((fresh_component_rngs, f"moments-{coefficients}-{rows}",
                     lambda mp, c=coefficients, r=rows: kernel.test_moments_match_oracle(mp, c, r, (20, 45), None)))
        ROWS.append((members_from_zero, f"moments-{coefficients}-{rows}",
                     lambda mp, c=coefficients, r=rows: kernel.test_moments_match_oracle(mp, c, r, (20, 45), None)))
        # not sin in 7-seed blocks: its smallest gap is seed 4's, which a repeated first block keeps
        if (coefficients, rows) != ("builtin:sin", 7):
            ROWS.append((fresh_component_rngs, f"probe-{coefficients}-{rows}",
                         lambda mp, c=coefficients, r=rows: kernel.test_probe_matches_oracle(mp, c, r, None)))
ROWS.append((screen_margin_one, "rounds-up-3",
             lambda mp: guard.test_same_raise_and_text_as_the_exact_scan("rounds up", "d=3")))
for layout in ("d=1", "d=2", "d=3", "probe"):
    ROWS.append((screen_passes_nan, f"nan-{layout}",
                 lambda mp, lay=layout: guard.test_same_raise_and_text_as_the_exact_scan("nan", lay)))
for d in (1, 2, 3, 9):
    ROWS.append((screen_passes_nan, f"random-blocks-{d}",
                 lambda mp, d=d: guard.test_random_blocks_near_their_bounds(d)))
ROWS.append((screen_passes_nan, "nan-state", lambda mp: kernel.test_nan_state_crosses_the_guard()))
ROWS.append((screen_passes_nan, "overflow-after-crossing",
             lambda mp: kernel.test_overflow_after_crossing_is_silent()))
for name, layouts in (("overflowed square", ("d=1", "d=2", "d=3", "probe")), ("tiny bound", ("d=1", "probe"))):
    for layout in layouts:
        ROWS.append((unwindowed_screen, f"{name}-{layout}",
                     lambda mp, n=name, lay=layout: guard.test_same_raise_and_text_as_the_exact_scan(n, lay)))
ROWS.append((unchecked_stepping_order, "march-rejection",
             lambda mp: kernel.test_march_rejects_starts_out_of_stepping_order()))
for d in (1, 2, 3):
    ROWS.append((negative_zero_lag_sup, f"no-lags-{d}", lambda mp, d=d: paths_tests.test_lag_sup_of_no_lags_is_zero(d)))
ROWS.append((negative_zero_lag_sup, "constant-path", paths_tests.test_constant_path_takes_no_lag_peak))


@pytest.mark.parametrize("patch, case", [(p, c) for p, _, c in ROWS],
                         ids=[f"{p.__name__}-{i}" for p, i, _ in ROWS])
def test_mutant_is_caught(monkeypatch, patch, case):
    patch(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        case(monkeypatch)
