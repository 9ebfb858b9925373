"""Walks the workspace's non-test Rust lines for the CI lint job.

ROADMAP's rule: .rs files under crates/ and src/, minus the dependency
shims, every tests/ and benches/ directory, and top-level
`#[cfg(test)] mod … { … }` blocks. Run from the repository root:

    python3 .github/scripts/nontest_sources.py count     # lines per crate
    python3 .github/scripts/nontest_sources.py count --base REV
                                    # base -> working tree, with deltas
    python3 .github/scripts/nontest_sources.py fan-outs  # scoped-thread check
    python3 .github/scripts/nontest_sources.py celf      # CELF-entry check
"""

import argparse
import os
import re
import subprocess
from collections import Counter

TEST_MOD = re.compile(r"(pub(\(crate\))? )?mod \w+ \{$")
# The one module allowed to open a thread scope: every parallel pass goes
# through its fan-out primitive.
FAN_OUT_HOME = os.path.join("crates", "walks", "src", "parallel.rs")
# The modules allowed to build a CELF heap entry: the entry's own, the one
# lazy greedy driver, and the delta engine's lazy argmax.
GREEDY = os.path.join("crates", "core", "src", "greedy")
CELF_HOMES = [os.path.join(GREEDY, f) for f in ("celf.rs", "driver.rs", "delta.rs")]
# A struct literal, not the type's own `struct`/`impl … for` headers.
CELF_LITERAL = re.compile(r"(?<!struct )(?<!for )\bCelfEntry \{")


def tree_files():
    """Yields (path, text) for every .rs file under crates/ and src/ in the
    working tree."""
    for top in ("crates", "src"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".rs"):
                    path = os.path.join(d, f)
                    yield path, open(path, encoding="utf-8").read()


def git(*args):
    """Runs git, returning its stdout; exits naming the command on failure."""
    done = subprocess.run(["git", *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def rev_files(rev):
    """Yields (path, text) for every .rs file under crates/ and src/ at git
    revision `rev`."""
    for path in git("ls-tree", "-r", "--name-only", rev, "--", "crates", "src").split("\n"):
        if path.endswith(".rs"):
            yield path, git("show", f"{rev}:{path}")


def nontest_lines(files):
    """Yields (crate, path, line number, line) for every non-test line of
    `files`, (path, text) pairs."""
    for path, text in files:
        parts = path.split(os.sep)
        if {"shims", "tests", "benches"} & set(parts[:-1]):
            continue
        crate = parts[1] if parts[0] == "crates" else "rwd"
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        i = 0
        while i < len(lines):
            line = lines[i]
            if line == "#[cfg(test)]" and TEST_MOD.match(lines[i + 1] if i + 1 < len(lines) else ""):
                i += 2
                while i < len(lines) and lines[i] != "}":
                    i += 1
                i += 1
                continue
            yield crate, path, i + 1, line
            i += 1


def tally(files):
    """Non-test lines per crate: all lines, and "code" lines, which drop
    blank lines and lines that start with `//`."""
    lines_all, lines_code = Counter(), Counter()
    for crate, _, _, line in nontest_lines(files):
        lines_all[crate] += 1
        lines_code[crate] += bool(line.strip()) and not line.strip().startswith("//")
    return lines_all, lines_code


def count(base=None):
    """Prints non-test lines per crate and in total, all lines then code
    lines; with `base`, the counts at that revision, the working tree's,
    and the delta of each."""
    head_all, head_code = tally(tree_files())
    if base is None:
        print(f"{'crate':10} {'all':>7} {'code':>7}")
        for c in sorted(head_all):
            print(f"{c:10} {head_all[c]:7,} {head_code[c]:7,}")
        print(f"{'total':10} {sum(head_all.values()):7,} {sum(head_code.values()):7,}")
        return 0
    base_all, base_code = tally(rev_files(base))
    crates = sorted(set(head_all) | set(base_all))
    rows = [(c, base_all[c], head_all[c], base_code[c], head_code[c]) for c in crates]
    rows.append(
        ("total", *(sum(t.values()) for t in (base_all, head_all, base_code, head_code)))
    )
    print(f"{'crate':10} {'all: base':>9} {'head':>7} {'delta':>7}   {'code: base':>10} {'head':>7} {'delta':>7}")
    for c, ba, ha, bk, hk in rows:
        print(f"{c:10} {ba:9,} {ha:7,} {ha - ba:+7,}   {bk:10,} {hk:7,} {hk - bk:+7,}")
    return 0


def confined(matches, homes, what, advice):
    """Fails, printing file:line, where a non-test source outside `homes`
    has a line that `matches`."""
    hits = [
        f"{path}:{no}: {line.strip()}"
        for _, path, no, line in nontest_lines(tree_files())
        if matches(line) and path not in homes
    ]
    for hit in hits:
        print(hit)
    if hits:
        print(f"{len(hits)} {what}(s) outside {', '.join(homes)}; {advice}")
        return 1
    print(f"no {what} outside {', '.join(homes)}")
    return 0


def fan_outs():
    """Scoped thread fan-outs live in the fan-out primitive's module."""
    return confined(
        lambda line: "thread::scope" in line,
        [FAN_OUT_HOME],
        "thread scope",
        "use rwd_walks::parallel::fan_out",
    )


def celf():
    """CELF rounds are written once: only the greedy driver (and the delta
    engine's lazy argmax) build `CelfEntry` records."""
    return confined(
        CELF_LITERAL.search,
        CELF_HOMES,
        "CelfEntry literal",
        "run lazy rounds through rwd_core::greedy::driver::greedy_lazy",
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Non-test Rust lines of the workspace.")
    commands = parser.add_subparsers(dest="command", required=True)
    count_cmd = commands.add_parser("count", help="non-test lines per crate")
    count_cmd.add_argument(
        "--base", metavar="REV", help="also count git revision REV and print base -> head deltas"
    )
    commands.add_parser("fan-outs", help="thread scopes outside the fan-out primitive")
    commands.add_parser("celf", help="CelfEntry literals outside the greedy driver")
    args = parser.parse_args()
    if args.command == "count":
        raise SystemExit(count(args.base))
    raise SystemExit({"fan-outs": fan_outs, "celf": celf}[args.command]())
