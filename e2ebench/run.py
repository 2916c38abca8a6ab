#!/usr/bin/env python3
"""Build and run the end-to-end serving-round benchmark.

Run from the root of the repository:

    python3 e2ebench/run.py --workload room_dense --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The benchmark is a Cargo package of its own (``e2ebench/Cargo.toml``)
with path dependencies on the repository's crates. It is built in release
mode, offline, with the repository's ``[patch.crates-io]`` table passed as
``--config`` overrides so the vendored stand-ins resolve exactly as they
do for the workspace. Build output goes to ``$CARGO_TARGET_DIR``
(default ``.bench_build``). Every other argument is handed to the
benchmark binary, whose last line of output is the result.
"""

import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_config():
    """The repository's [patch.crates-io] entries as --config arguments."""
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    try:
        with open(root_manifest, "rb") as f:
            patches = tomllib.load(f).get("patch", {}).get("crates-io", {})
    except (OSError, tomllib.TOMLDecodeError) as e:
        fail(f"cannot read the repository manifest {root_manifest}: {e}")
    args = []
    for name, spec in sorted(patches.items()):
        if "path" in spec:
            path = os.path.join(ROOT, spec["path"])
            args += ["--config", f'patch.crates-io.{name}.path="{path}"']
    return args


def cargo(subcommand, extra, timeout):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", subcommand, "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST] + cargo_config() + extra
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=sys.stderr).returncode, env
    except subprocess.TimeoutExpired:
        fail(f"cargo {subcommand} timed out after {timeout} s")


def main():
    for crate in ("bloc-core", "bloc-chan", "bloc-num", "bloc-obs", "bloc-testbed"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing: run from a full checkout of the repository")
    if sys.argv[1:] == ["--selftest"]:
        code, _ = cargo("test", [], BUILD_TIMEOUT_S)
        sys.exit(code)
    code, env = cargo("build", [], BUILD_TIMEOUT_S)
    if code != 0:
        fail(f"cargo build failed with exit code {code}")
    binary = os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "bloc-e2ebench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
