"""Regenerate the scaled-down AMS-IX census files next to this script.

    python3 bench/fixtures/derive.py

Each ``amsix2014-d<N>.members`` is the packaged ``amsix2014.members``
census (``src/repro/workloads/fixtures``) with every member's prefix
count divided by N (never below one), so membership, ports, the AS
graph and Table 1's announcement skew are kept while the RIB — and with
it the RIB-proportional part of a compile — shrinks to fit a benchmark
run.  The files are checked in; ``bench/tests/test_inputs.py`` fails if
they drift from what this script writes.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGED = os.path.join(
    HERE, "..", "..", "src", "repro", "workloads", "fixtures", "amsix2014.members"
)
DIVISORS = (40,)


def derive(divisor: int) -> str:
    """The text of the census divided by ``divisor``."""
    lines = [
        f"# amsix2014.members with prefix counts divided by {divisor} "
        "(bench/fixtures/derive.py)\n",
        "# format: asn|prefixes|ports\n",
    ]
    with open(PACKAGED, encoding="utf-8") as handle:
        for raw in handle:
            row = raw.strip()
            if not row or row.startswith("#"):
                continue
            asn, prefixes, ports = row.split("|")
            lines.append(f"{asn}|{max(1, int(prefixes) // divisor)}|{ports}\n")
    return "".join(lines)


def census_path(divisor: int) -> str:
    return os.path.join(HERE, f"amsix2014-d{divisor}.members")


def main() -> int:
    for divisor in DIVISORS:
        with open(census_path(divisor), "w", encoding="utf-8") as handle:
            handle.write(derive(divisor))
        print(f"wrote {census_path(divisor)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
