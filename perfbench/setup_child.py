"""Time one workload's set-up in a fresh interpreter and print it as JSON.

Set-up is `import mofgd.cli`, parsing the workload's configs, and building
its instances and objectives (the fixture objectives validate their
gradients against finite differences as they are built).

Usage, from the repository root:  python3 perfbench/setup_child.py WORKLOAD SEED
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

root = Path.cwd()
sys.path.insert(0, str(root / "src"))

start = time.perf_counter()
import mofgd.cli  # noqa: E402,F401  (the import is what is timed)
import_s = time.perf_counter() - start

from workloads import WORKLOADS  # noqa: E402

times = defaultdict(float)


@contextmanager
def timer(*names):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    for name in names:
        times[name] += elapsed


WORKLOADS[sys.argv[1]].setup(root, int(sys.argv[2]), timer)
print(json.dumps({
    "import_s": import_s,
    "parse_config_s": times["parse_config_s"],
    "build_s": times["build_s"],
    "fixtures_build_s": times["fixtures_build_s"],
    "setup_s": import_s + times["parse_config_s"] + times["build_s"],
}))
