"""Entry point of one pass subprocess: ``child.py '<json spec>'``.

Prints the pass result as one JSON line.  The import of the simulator
stack is timed here because a fresh interpreter pays it once per pass
(``runtime.import_s``).
"""

import json
import pathlib
import sys
import time


def main(argv) -> int:
    spec = json.loads(argv[1])
    root = pathlib.Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import simrun
    import_s = time.perf_counter() - t0
    result = simrun.run_pass(spec)
    result["import_s"] = import_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
