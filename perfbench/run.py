#!/usr/bin/env python3
"""Build and run the Pliant simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <node_dense|node_overload|cluster_wide>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ with CMake (which compiles the
simulator library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one
workload. Build output goes to stderr; the benchmark's last stdout line
is its JSON result. Traced runs write their Chrome trace and span self
times to <build dir>/results/. See perfbench/NOTES.md.
"""

import os
import signal
import subprocess
import sys

# The benchmark binary exits well inside this; a hung run is killed.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    exe = os.path.join(build_dir, "pliant_perfbench")
    out_dir = os.path.join(build_root, "results")
    # Keep the compiler's scratch files inside the build tree too.
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(min(os.cpu_count() or 1, 4))
    try:
        subprocess.run(["cmake", "-S", here, "-B", build_dir],
                       check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Own process group, so stopping the run also stops the processes
    # the binary forks.
    proc = subprocess.Popen([exe, *sys.argv[1:], "--out-dir", out_dir],
                            start_new_session=True, env=env)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        stop()


if __name__ == "__main__":
    sys.exit(main())
