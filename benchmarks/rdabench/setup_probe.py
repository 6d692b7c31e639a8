"""Set-up time of a fresh interpreter: import the CLI, parse the config,
build the model and sample every seed's path, as before a first time step.

    python3 setup_probe.py SRC_DIR CONFIG_FILE   # prints seconds
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rdawave.cli  # noqa: E402,F401
from rdawave.config import parse_config  # noqa: E402
from rdawave.paths import generate_path  # noqa: E402

with open(sys.argv[2]) as fh:
    cfg = parse_config(fh.read())
cfg.build_model()
for seed in cfg.seeds:
    generate_path(seed, cfg["path.t_min"], cfg["experiment.t_end"], cfg.dt_path)
print(time.perf_counter() - t0)
