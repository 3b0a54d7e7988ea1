"""Set-up from a fresh interpreter to ready: import tapfuse, load the
config, build the seeded-init and perturbed TFW1 weight files and load
them back.

    python3 perfbench/setup_ready.py <src dir> <config file> <out dir>

run.py times this script from spawn to exit (setup_s); its traced run
calls ``ready`` in-process instead.
"""

from __future__ import annotations

import sys
from pathlib import Path


def ready(cfg_path: Path, out_dir: Path) -> None:
    import tapfuse.config
    import tapfuse.weights as weights

    import workloads

    cfg = tapfuse.config.load_run_config(cfg_path)
    fc = cfg.fusion_config()
    init = weights.WeightBundle.initialize(fc, cfg.seed)
    perturbed = weights.WeightBundle(
        params=workloads.perturb(init.params, cfg.seed), config=fc,
        seed=cfg.seed)
    for name, bundle in (("init.tfw", init), ("perturbed.tfw", perturbed)):
        path = out_dir / name
        path.write_bytes(weights.save_weights(bundle))
        weights.load_weights(path.read_bytes(), fc, cfg.seed)


if __name__ == "__main__":
    src, cfg_file, out = sys.argv[1:4]
    sys.path.insert(0, src)
    ready(Path(cfg_file), Path(out))
