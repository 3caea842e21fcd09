"""Set-up probe: import cryomux and generate one workload's inputs, then exit.

    python3 perfbench/probe.py <workload> <seed> <workdir>

run.py times this script in fresh interpreters to measure setup_s.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
