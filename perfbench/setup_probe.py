"""Set-up a fresh interpreter pays before its first op: import the CLI,
load the workload config and build its kernel bank.

    python3 perfbench/setup_probe.py CONFIG_JSON
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spotdeconv import cli  # noqa: E402
from spotdeconv.kernels import build_kernel_bank, make_scale_grid  # noqa: E402

cfg = cli.load_config(sys.argv[1])
build_kernel_bank(make_scale_grid(cfg.sigma_max_pixels, cfg.num_scales), cfg.truncation)
