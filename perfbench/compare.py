"""Compare two result files job by job.

    python3 perfbench/compare.py .bench_out/result-A.json other/result-A.json

Result files are written by run.py under .bench_out/. Run the same workload
and seed on two commits and compare: every job both runs share must give the
same exit code and report digest. Prints each difference and exits 1 if
there is one.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    runs = []
    for path in argv:
        with open(path) as f:
            runs.append({j["key"]: (j["exit"], j["digest"]) for j in json.load(f)["jobs"]})
    shared = runs[0].keys() & runs[1].keys()
    differ = sorted(k for k in shared if runs[0][k] != runs[1][k])
    for key in differ:
        print(f"{runs[0][key]} != {runs[1][key]}: {key[:200]}")
    print(f"{len(shared)} shared jobs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
