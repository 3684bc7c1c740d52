#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload execute-suites|serve-mixed \
        --seed N --seconds S --trace 0|1 [--tiny]

The last line of standard output is the result object (see
perfbench/METRICS.md). The run writes only inside the checkout: dune's
_build/ (with dune's shared cache disabled) and a scratch directory
.perfbench-tmp/<pid>, removed on exit. CASPER_* and OCAMLRUNPARAM are
removed from the benchmark's environment, so only the configuration pinned
in perfbench.ml is measured.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def source_id():
    """The commit of a git checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a casper checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CASPER_") and k != "OCAMLRUNPARAM"}
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "--cache=disabled", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    tmp = os.path.join(os.getcwd(), ".perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = [EXE] + sys.argv[1:] + ["--tmp", tmp, "--commit", source_id()]
    # the OCaml runtime reads this once at start-up: the traced run's
    # runtime_events ring file goes to the scratch directory too
    env["OCAML_RUNTIME_EVENTS_DIR"] = tmp
    # a terminated wrapper still stops and waits for the benchmark
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
