"""Walks the workspace's non-test Rust lines for the CI lint job.

ROADMAP's rule: .rs files under crates/ and src/, minus the dependency
shims, every tests/ and benches/ directory, and top-level
`#[cfg(test)] mod … { … }` blocks. Run from the repository root:

    python3 .github/scripts/nontest_sources.py count     # lines per crate
    python3 .github/scripts/nontest_sources.py fan-outs  # scoped-thread check
    python3 .github/scripts/nontest_sources.py celf      # CELF-entry check
"""

import os
import re
import sys
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


def nontest_lines():
    """Yields (crate, path, line number, line) for every non-test line."""
    for top in ("crates", "src"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            parts = d.split(os.sep)
            if {"shims", "tests", "benches"} & set(parts):
                dirs[:] = []
                continue
            crate = parts[1] if len(parts) > 1 and top == "crates" else "rwd"
            for f in sorted(files):
                if not f.endswith(".rs"):
                    continue
                path = os.path.join(d, f)
                lines = open(path, encoding="utf-8").read().split("\n")
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


def count():
    """Prints non-test lines per crate and in total: all lines, then "code"
    lines, which drop blank lines and lines that start with `//`."""
    lines_all, lines_code = Counter(), Counter()
    for crate, _, _, line in nontest_lines():
        lines_all[crate] += 1
        lines_code[crate] += bool(line.strip()) and not line.strip().startswith("//")
    print(f"{'crate':10} {'all':>7} {'code':>7}")
    for c in sorted(lines_all):
        print(f"{c:10} {lines_all[c]:7,} {lines_code[c]:7,}")
    print(f"{'total':10} {sum(lines_all.values()):7,} {sum(lines_code.values()):7,}")
    return 0


def confined(matches, homes, what, advice):
    """Fails, printing file:line, where a non-test source outside `homes`
    has a line that `matches`."""
    hits = [
        f"{path}:{no}: {line.strip()}"
        for _, path, no, line in nontest_lines()
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
    commands = {"count": count, "fan-outs": fan_outs, "celf": celf}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(commands)}}}")
    sys.exit(commands[sys.argv[1]]())
