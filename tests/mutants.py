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
    Mutant("src/spotdeconv/kernels.py",
           "radius = int(np.ceil(min(truncation, ERF_REACH) * sigma))",
           "radius = int(np.floor(min(truncation, ERF_REACH) * sigma))",
           "tests/test_kernels.py::test_demo_bank_radii"),
    Mutant("src/spotdeconv/kernels.py", "ERF_REACH = 8.5", "ERF_REACH = 6.0",
           "tests/test_kernels.py::test_taps_stop_where_erf_does"),
    Mutant("src/spotdeconv/kernels.py", "min(truncation, ERF_REACH)", "truncation",
           "tests/test_cli.py::test_pipeline_files_do_not_grow_with_truncation"),
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
    Mutant("src/spotdeconv/solver.py",
           'if np.einsum("kmn,kmn->", step, diff) - norm2_diff > 0:',
           'if np.einsum("kmn,kmn->", step, diff) - norm2_diff >= 0:',
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
    Mutant("src/spotdeconv/convolution.py",
           "radius = min(max(f.radius for f in bank.factors), extent - 1)",
           "radius = max(f.radius for f in bank.factors)",
           "tests/test_convolution.py::test_bands_follow_the_image_not_the_truncation"),
    Mutant("src/spotdeconv/detection.py", "node = flat > 0.0", "node = flat >= 0.0",
           "tests/test_detection.py::test_zero_background_not_detected",
           id="test_zero_background_not_detected"),
    Mutant("src/spotdeconv/detection.py", "below |= level < other", "below |= level <= other",
           "tests/test_detection.py::test_two_pixel_plateau_centroid",
           id="test_plateau_split_by_greater_pixel_excluded"),
    Mutant("src/spotdeconv/detection.py", "[(other < level) & (other > 0.0)]",
           "[other < level]",
           "tests/test_detection.py::test_isolated_peak"),
    Mutant("src/spotdeconv/detection.py", "order = np.lexsort((col_c, row_c, -value))",
           "order = np.lexsort((row_c, col_c, -value))",
           "tests/test_detection.py::test_detect_tie_break_row_col"),
    Mutant("src/spotdeconv/evaluation.py", "np.lexsort((src, dist, det))",
           "np.lexsort((-src, dist, det))",
           "tests/test_evaluation.py::test_match_distance_tie_breaks_by_gt_index",
           id="test_match_distance_tie_breaks_by_gt_index"),
    Mutant("src/spotdeconv/evaluation.py", "keep = dist <= tol", "keep = dist < tol",
           "tests/test_evaluation.py::test_match_perfect", id="test_match_perfect"),
    Mutant("src/spotdeconv/evaluation.py", "keep = dist <= tol", "keep = dist <= 2 * tol",
           "tests/test_evaluation.py::test_match_mixed_example", id="near_source_within_tol"),
    Mutant("src/spotdeconv/evaluation.py", "if len(taken) == len(gt_row):",
           "if len(taken) == len(gt_row) - 1:",
           "tests/test_evaluation.py::test_pass_stops_once_every_source_is_taken"),
    Mutant("src/spotdeconv/evaluation.py", "p != np.append(p[1:], np.nan)",
           "p != np.append(p[1:], 0.0)",
           "tests/test_evaluation.py::test_sweep_reports_a_last_run_at_p_zero"),
    Mutant("src/spotdeconv/evaluation.py", "reach = 2 * tol", "reach = tol",
           "tests/test_evaluation.py::test_match_when_only_the_rounded_distance_is_within_tol"),
    Mutant("src/spotdeconv/evaluation.py", "out=np.zeros(np.shape(den)), where=den > 0)",
           "out=np.zeros(np.shape(den)))",
           "tests/test_evaluation.py::test_prf1_is_elementwise_over_arrays"),
    Mutant("src/spotdeconv/evaluation.py", "PAIR_CHUNK = 1 << 16", "PAIR_CHUNK = 1 << 40",
           "tests/test_evaluation.py::test_pre_filter_memory_does_not_grow_with_the_pairs"),
    Mutant("src/spotdeconv/codec.py", "if head[:4] != MAGIC:", "if head[:3] != MAGIC[:3]:",
           "tests/test_codec.py::test_bad_magic"),
    Mutant("src/spotdeconv/codec.py", "if version != VERSION:", "if version > VERSION:",
           "tests/test_codec.py::test_bad_version_and_ndim"),
    Mutant("src/spotdeconv/codec.py", "if ndim not in (2, 3):", "if ndim > 3:",
           "tests/test_codec.py::test_bad_version_and_ndim", id="codec_ndim_below_two"),
    Mutant("src/spotdeconv/codec.py", "if size != expected:", "if size < expected:",
           "tests/test_codec.py::test_truncated_payload_reports_lengths"),
    Mutant("src/spotdeconv/codec.py", "if stat.S_ISREG(info.st_mode):",
           "if stat.S_ISFIFO(info.st_mode):",
           "tests/test_codec.py::test_read_tensor_allocates_one_payload"),
    Mutant("src/spotdeconv/codec.py", " + len(fh.read())", "",
           "tests/test_codec.py::test_read_tensor_from_a_pipe"),
    Mutant("src/spotdeconv/cli.py", "arr.ndim != ndim", "arr.ndim < ndim",
           "tests/test_cli.py::test_input_tensor_rule_names_the_file", id="reader_rank"),
    Mutant("src/spotdeconv/cli.py", " or 0 in arr.shape", "",
           "tests/test_cli.py::test_input_tensor_rule_names_the_file", id="reader_empty_dims"),
    Mutant("src/spotdeconv/cli.py", "if not np.isfinite(arr).all():",
           "if not np.isfinite(arr).any():",
           "tests/test_cli.py::test_solve_rejects_non_finite_input"),
    Mutant("src/spotdeconv/cli.py", "if resolved == other:", "if path == other:",
           "tests/test_cli.py::test_two_outputs_on_one_path_exit_code"),
    Mutant("src/spotdeconv/cli.py", "if resolved.is_dir():", "if False:",
           "tests/test_cli.py::test_pipeline_out_dir_file_is_a_directory_exit_code"),
    Mutant("src/spotdeconv/cli.py", "not resolved.parent.is_dir()", "False",
           "tests/test_cli.py::test_unwritable_second_output_exit_code"),
    Mutant("src/spotdeconv/cli.py", "if p.exists()).is_dir()", "if p.exists()).exists()",
           "tests/test_cli.py::test_out_dir_on_a_file_exit_code"),
    Mutant("src/spotdeconv/synth.py", " - int(np.hypot(d, d) >= sep)", "",
           "tests/test_synth.py::test_packing_bound_admits_greedy_raster_placement"),
    Mutant("src/spotdeconv/synth.py", "np.hypot(d + 1, d + 1) < sep", "np.hypot(d + 1, d + 1) <= sep",
           "tests/test_synth.py::test_packing_bound_admits_greedy_raster_placement",
           id="packing_bound_next_side_below_sep"),
    Mutant("src/spotdeconv/kernels.py",
           "min(float(truncation), ERF_REACH) * grid.sigma_max_pixels < np.inf",
           "True", "tests/test_cli.py::test_pipeline_rejects_bad_config_value",
           id="tap_radius_finite"),
    Mutant("src/spotdeconv/kernels.py", "min(float(truncation), ERF_REACH)", "float(truncation)",
           "tests/test_cli.py::test_pipeline_files_do_not_grow_with_truncation",
           id="tap_reach_not_truncation_finite"),
    Mutant("src/spotdeconv/solver.py", "np.square(wmax)", "wmax",
           "tests/test_solver.py::test_step_size_examples"),
    Mutant("src/spotdeconv/solver.py", "if w.shape != shape:", "if w.shape[0] != shape[0]:",
           "tests/test_solver.py::test_weights_shape_rule_on_the_library_path"),
    Mutant("src/spotdeconv/solver.py", "0.0 < eta < np.inf", "0.0 <= eta < np.inf",
           "tests/test_solver.py::test_step_size_refuses_a_zero_step"),
    Mutant("src/spotdeconv/cli.py", "step_size(grid.sigma_max_pixels, uniform)", "None",
           "tests/test_cli.py::test_synth_refuses_degenerate_uniform_weights"),
    Mutant("src/spotdeconv/solver.py", "(i - 1.0) / (i + chambolle_a - 1.0)",
           "(i - 1.0) / (i + chambolle_a)",
           "tests/test_solver.py::test_momentum_chambolle_table"),
    Mutant("src/spotdeconv/synth.py", "int(rows[-1] - rows[0]) + 1", "int(rows[-1] - rows[0])",
           "tests/test_synth.py::test_placement_matches_scalar_loop",
           id="room_bounding_box_height"),
    Mutant("src/spotdeconv/synth.py", "int(cols[-1] - cols[0]) + 1", "int(cols[-1] - cols[0])",
           "tests/test_synth.py::test_placement_matches_scalar_loop",
           id="room_bounding_box_width"),
    Mutant("src/spotdeconv/cli.py", '"default": DEFAULT_TOL}', '"default": 2 * DEFAULT_TOL}',
           "tests/test_cli.py::test_parser_surface"),
    Mutant("src/spotdeconv/cli.py", "None if report.threshold == np.inf else report.threshold",
           "report.threshold", "tests/test_cli.py::test_report_json_bytes"),
    Mutant("src/spotdeconv/evaluation.py", "np.maximum(hi - lo, 0)", "hi - lo",
           "tests/test_evaluation.py::test_negative_tol_matches_nothing"),
    Mutant("src/spotdeconv/detection.py",
           "return np.column_stack((row_c[order], col_c[order], value[order]))",
           "return list(zip(row_c[order].tolist(), col_c[order].tolist(), value[order].tolist()))",
           "tests/test_detection.py::test_detect_and_csv_make_no_object_per_detection"),
    Mutant("src/spotdeconv/detection.py", "np.column_stack((row_c[order], col_c[order],",
           "np.column_stack((col_c[order], row_c[order],",
           "tests/test_detection.py::test_two_pixel_plateau_centroid"),
    Mutant("src/spotdeconv/codec.py", "DETECTIONS_HEADER, np.asarray(dets, dtype=np.float64).ravel()",
           'DETECTIONS_HEADER, np.asarray(dets, dtype=np.float64).ravel(order="F")',
           "tests/test_codec.py::test_detections_csv_roundtrip"),
    Mutant("src/spotdeconv/solver.py", 'float(np.einsum("kmn,kmn->", diff, diff))',
           "float(np.vdot(diff, diff))",
           "tests/test_solver.py::test_solve_scalars_do_not_depend_on_blas_threads",
           id="norm2_diff_off_blas"),
    Mutant("src/spotdeconv/solver.py", 'float(np.einsum("mn,mn->", shrunk, shrunk))',
           "float(np.vdot(shrunk, shrunk))",
           "tests/test_solver.py::test_solve_scalars_do_not_depend_on_blas_threads",
           id="shrink_norm2_off_blas"),
    Mutant("src/spotdeconv/synth.py", "np.array(positions, dtype=np.float64).reshape(-1, 2)",
           "np.array(positions, dtype=np.float64)", "tests/test_synth.py::test_zero_sources"),
    Mutant("src/spotdeconv/codec.py", "except csv.Error as exc:", "except LookupError as exc:",
           "tests/test_cli.py::test_evaluate_rejects_bad_csv_rows", id="csv_error_names_the_file"),
    Mutant("src/spotdeconv/codec.py", ', errors="surrogateescape")', ")",
           "tests/test_cli.py::test_evaluate_rejects_bad_csv_rows", id="csv_not_utf8_fails_its_line"),
    Mutant("src/spotdeconv/codec.py", "line = reader.line_num + 1\n            for row",
           "for row", "tests/test_cli.py::test_evaluate_rejects_bad_csv_rows",
           id="csv_line_after_the_header"),
    Mutant("src/spotdeconv/codec.py", "rows.append(values)\n                line = reader.line_num + 1",
           "rows.append(values)", "tests/test_cli.py::test_evaluate_rejects_bad_csv_rows",
           id="csv_line_where_the_record_starts"),
    Mutant("src/spotdeconv/cli.py",
           "except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:",
           "except (json.JSONDecodeError, RecursionError) as exc:",
           "tests/test_cli.py::test_unloadable_config_exit_code", id="config_not_utf8"),
    Mutant("src/spotdeconv/cli.py",
           "except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:",
           "except (json.JSONDecodeError, UnicodeDecodeError) as exc:",
           "tests/test_cli.py::test_unloadable_config_exit_code", id="config_nested_too_deep"),
    Mutant("src/spotdeconv/cli.py", "if key in table:", "if False:",
           "tests/test_cli.py::test_unloadable_config_exit_code", id="config_repeated_key"),
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
