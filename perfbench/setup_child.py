"""Fresh-process set-up probe for the benchmark.

Usage (from the repository root):

    python3 perfbench/setup_child.py '{"import_cli": true, "carriers": [["engel", {}]]}'

Times ``import emergent_irq`` (and the CLI module when asked) and building
each listed carrier with ``build_carrier``, then prints one JSON line with
``import_s`` and ``build_s``.
"""

import json
import sys
import time
from pathlib import Path


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import emergent_irq
    if spec["import_cli"]:
        import emergent_irq.cli  # noqa: F401
    imported = time.perf_counter()
    for name, params in spec["carriers"]:
        emergent_irq.build_carrier(name, params)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}))


if __name__ == "__main__":
    main()
