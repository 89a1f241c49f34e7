#!/usr/bin/env python3
"""Build and run the UC job benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload compile|execute|serve \\
        --seed N --seconds S --trace 0|1

Builds `perfbench/ucbench.exe` and `bin/ucc.exe` with dune, then runs the
benchmark.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Everything the run writes
stays inside the checkout: `_build/` and `_perfbench_run/`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("compile", "execute", "serve")
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib/ucd", "lib/uc", "lib/cm", "bin/ucc.ml"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a UC source checkout (%s is missing)" % need)

    work = os.path.join(root, "_perfbench_run")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # dune's shared cache and ocamlopt's temporary files would otherwise
    # land outside the checkout
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.join(work, "xdg"),
    )

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/ucbench.exe", "./bin/ucc.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join("_build", "default", "perfbench", "ucbench.exe")
    ucc = os.path.join("_build", "default", "bin", "ucc.exe")
    cmd = [
        exe, "run",
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--ucc", ucc,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        # the benchmark's at_exit handler reaps its daemon on SIGTERM
        proc.terminate()
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        fail("benchmark timed out")
    sys.stdout.write(out)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)


if __name__ == "__main__":
    main()
