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
