"""One-line mutants of src/ and the test that must kill each.

Each mutant replaces one text, which occurs exactly once in its file
(tests/test_mutants.py checks that), by another. Run as a script, it applies
each mutant to a fresh copy of src/ and runs its one test against that copy;
it exits 1 if any mutant survives, that is if its test passes:

    python tests/mutants.py WORK_DIR
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    test: str  # a pytest node id that fails under the mutant
    id: str = None  # the case's id in tests/test_mutants.py; by default the test's name


MUTANTS = [
    Mutant("src/spotdeconv/kernels.py", "radius = int(np.ceil(truncation * sigma))",
           "radius = int(np.floor(truncation * sigma))",
           "tests/test_kernels.py::test_demo_bank_radii"),
    Mutant("src/spotdeconv/kernels.py", "SIGMA_MIN = 0.05", "SIGMA_MIN = 0.06",
           "tests/test_kernels.py::test_clamped_bin_takes_sigma_min_taps"),
    Mutant("src/spotdeconv/cli.py", "noise_seed = spec.seed + 1", "noise_seed = spec.seed + 2",
           "tests/test_cli.py::test_demo_run_converges"),
    Mutant("src/spotdeconv/evaluation.py", "np.lexsort((np.signbit(dets[:, 2]), dets[:, 1],",
           "np.lexsort((dets[:, 1],",
           "tests/test_cli.py::test_evaluate_contract_under_random_inputs"),
    Mutant("src/spotdeconv/synth.py", "stamp = np.hypot(dr, dc) >= spec.min_separation",
           "stamp = np.hypot(dr, dc) > spec.min_separation",
           "tests/test_synth.py::test_placement_matches_scalar_loop"),
    Mutant("src/spotdeconv/convolution.py",
           "if len(shape) != 3 or shape[0] != bank.num_kernels:", "if len(shape) != 3:",
           "tests/test_convolution.py::test_operators_refuse_mis_shaped_input"),
    Mutant("src/spotdeconv/solver.py", "kappa = 0.5 * eta * cfg.lam",
           "kappa = 0.5 * eta * cfg.lam * (1 + 1e-6)",
           "tests/test_solver.py::test_solve_matches_textbook_fista"),
    Mutant("src/spotdeconv/solver.py", "max(math.sqrt(norm2_a), 1e-12)",
           "max(math.sqrt(norm2_a), 1e-6)",
           "tests/test_properties.py::test_progress_rel_change_is_relative_step"),
    Mutant("src/spotdeconv/solver.py", "if np.vdot(step, diff) - norm2_diff > 0:",
           "if np.vdot(step, diff) - norm2_diff >= 0:",
           "tests/test_solver.py::test_solve_zero_observation_fixed_point"),
    Mutant("src/spotdeconv/solver.py", "restarts, start, mom_state = restarts + 1, i - 1, None",
           "restarts, start = restarts + 1, i - 1",
           "tests/test_solver.py::test_restart_starts_the_momentum_again"),
    Mutant("src/spotdeconv/solver.py", "if rel_change <= cfg.rel_tol:",
           "if rel_change < cfg.rel_tol:",
           "tests/test_solver.py::test_stop_rule_includes_rel_tol"),
    Mutant("src/spotdeconv/solver.py",
           "objectives[-1] = float(fidelity + cfg.lam * np.sum(group_norm_image(a_opt)))",
           "objectives[-1] = float(fidelity + cfg.lam * regularizer)",
           "tests/test_solver.py::test_objectives_match_objective_of_each_iterate"),
    Mutant("src/spotdeconv/solver.py", "diff = plan.workspace.reshape(a.shape)",
           "diff = np.empty_like(a)",
           "tests/test_solver.py::test_peak_memory_at_most_six_volumes"),
    Mutant("src/spotdeconv/convolution.py",
           "row[BLOCK - 1 + radius - r : BLOCK + radius + r] =",
           "row[BLOCK + radius - r : BLOCK + 1 + radius + r] =",
           "tests/test_acceptance.py::test_criterion_1_adjoint_identity"),
    Mutant("src/spotdeconv/convolution.py", "min(i0 + b + radius, size)",
           "min(i0 + b + radius - 1, size)",
           "tests/test_acceptance.py::test_criterion_5_tiny_instance_optimality"),
    Mutant("src/spotdeconv/detection.py", "& (p > 0.0)", "& (p >= 0.0)",
           "tests/test_detection.py::test_zero_background_not_detected"),
    Mutant("src/spotdeconv/detection.py", "spills = (_max3x3(padded) == p)[candidate]",
           "spills = (_max3x3(padded) > p)[candidate]",
           "tests/test_detection.py::test_plateau_split_by_greater_pixel_excluded"),
    Mutant("src/spotdeconv/detection.py", "order = np.lexsort((col_c, row_c, -value))",
           "order = np.lexsort((row_c, col_c, -value))",
           "tests/test_detection.py::test_detect_tie_break_row_col"),
    Mutant("src/spotdeconv/evaluation.py", "candidates[np.argmin(dist[candidates])]",
           "candidates[::-1][np.argmin(dist[candidates][::-1])]",
           "tests/test_evaluation.py::test_match_distance_tie_breaks_by_gt_index"),
    Mutant("src/spotdeconv/evaluation.py", "unmatched & (dist <= tol)",
           "unmatched & (dist < tol)",
           "tests/test_evaluation.py::test_match_perfect"),
    Mutant("src/spotdeconv/evaluation.py", "near[det[dist <= tol]] = True",
           "near[det[dist < tol]] = True",
           "tests/test_evaluation.py::test_match_perfect", id="near_source_within_tol"),
    Mutant("src/spotdeconv/evaluation.py", "reach = 2 * tol", "reach = tol",
           "tests/test_evaluation.py::test_match_when_only_the_rounded_distance_is_within_tol"),
    Mutant("src/spotdeconv/evaluation.py", "out=np.zeros(np.shape(den)), where=den > 0)",
           "out=np.zeros(np.shape(den)))",
           "tests/test_evaluation.py::test_prf1_is_elementwise_over_arrays"),
    Mutant("src/spotdeconv/evaluation.py", "PAIR_CHUNK = 1 << 16", "PAIR_CHUNK = 1 << 40",
           "tests/test_evaluation.py::test_pre_filter_memory_does_not_grow_with_the_pairs"),
]


def run(mutant, work_dir):
    """Run mutant.test against a copy of src/ under work_dir with the mutant
    applied. Returns pytest's exit code: 1 if the test failed (killed)."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    shutil.copytree(ROOT / "src", work_dir / "src")
    target = work_dir / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.path}: {mutant.old!r} does not occur exactly once")
    target.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(work_dir / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "--tb=line",
                           "-p", "no:cacheprovider", mutant.test], cwd=ROOT, env=env).returncode


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__)
    survivors = []
    for i, mutant in enumerate(MUTANTS):
        print(f"mutant {i}: {mutant.path}: {mutant.old!r} -> {mutant.new!r}", flush=True)
        code = run(mutant, Path(argv[0]) / str(i))
        if code == 0:
            survivors.append(i)
        elif code != 1:  # an error, not a failing test: the mutant was not checked
            raise SystemExit(f"mutant {i}: pytest exited {code} on {mutant.test}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed"
          + (f"; survivors: {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
