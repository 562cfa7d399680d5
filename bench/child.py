"""One workload iteration in a fresh interpreter, as a CLI user pays for it.

    python bench/child.py <spawn monotonic time> <spec JSON>

Set-up is the time from the parent's spawn to `richain.cli` imported.
The spec names the CLI argv, the file that receives the CLI's stdout,
the file that receives this iteration's measurements, and whether to
trace.  The measurements are wall time of `cli.main(argv)`, its return
code or exception, peak RSS, and with tracing on the per-function
summary of `tracer.Tracer`.
"""

import sys
import time

import richain.cli

SETUP_END = time.monotonic()

import json  # noqa: E402  (imports after the timed set-up)
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


def _environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config),
        "scipy_openblas": blas(scipy.show_config),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    spawned = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    setup_s = SETUP_END - spawned
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    expected = os.path.join(root, "src", "richain")
    if os.path.dirname(os.path.abspath(richain.cli.__file__)) != expected:
        print(f"richain imported from {richain.cli.__file__}, not {expected}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, spec["modules"], spec["methods"])
    cli = richain.cli  # looked up after install, so main is the traced binding

    error = None
    code = None
    with open(spec["out"], "w", encoding="utf-8", newline="") as fh, redirect_stdout(fh):
        start = time.perf_counter()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc(limit=4)
        wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "code": code,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    if spec["env"]:
        result["env"] = _environment()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
