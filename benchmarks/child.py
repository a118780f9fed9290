"""One fresh interpreter: import the CLI, then run at most one operation.

Reads the operation from stdin as JSON, a list of argv lists (or null for
none), and prints one JSON object: the import time measured here, so that
interpreter start-up is excluded; the time of the operation; calibrations
taken right after it, in the same process; the peak resident memory at the
end; and the operation's result, a digest of every output or the name of the
exception it raised, which the parent compares with what it checked
in-process.
"""

import sys
import time

t0 = time.perf_counter()
import conicmaps.cli as cli  # noqa: E402

t1 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import calibration  # noqa: E402


def run_op(argvs):
    digests = []
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            digests.append([rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
    return digests


def main():
    argvs = json.loads(sys.stdin.read())
    op_ms = result = None
    if argvs is not None:
        start = time.perf_counter_ns()
        try:
            result = {"outputs": run_op(argvs), "error": None}
        except Exception as exc:  # a known fault of the program; the parent judges it
            result = {"outputs": None, "error": type(exc).__name__}
        op_ms = (time.perf_counter_ns() - start) / 1e6
    calibrations = [calibration.calibration_ns() for _ in range(5)]
    print(json.dumps({
        "import_s": t1 - t0,
        "op_ms": op_ms,
        "calibrations": calibrations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
        "result": result,
    }))

if __name__ == "__main__":
    main()
