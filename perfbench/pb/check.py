"""Output check behind `failed`: pinned expectations plus invariants.

Every timed op is compared with the signature pinned for its inputs in
expected/<workload>.tsv. On top of that, for any seed:
  - design_replay's warm and hot phases must reproduce the cold phase
    cell for cell within a pass;
  - every post-run check hostbench made (pool vs serial, direct
    runStream samples) must hold, and a check whose name is pinned
    (the design_replay frontiers) must match its pinned detail.
attempted counts ops plus checks; failed counts those that fail.
"""

import os


def expected_path(bench_dir, workload):
    return os.path.join(bench_dir, "expected", f"{workload}.tsv")


def load_expected(path):
    table = {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                key, sig = line.split("\t", 1)
                table[key] = sig
    return table


def write_expected(path, result):
    """Pin every op and check outcome of a pinned-pool run."""
    rows = {op["key"]: op["sig"] for op in result["ops"]}
    rows.update({c["name"]: c["detail"] for c in result["checks"]})
    with open(path, "w") as f:
        f.write("# key\tdeterministic outputs (run.py --record)\n")
        for key in sorted(rows):
            f.write(f"{key}\t{rows[key]}\n")


def failed_ops(ops, expected):
    """Indices of ops whose outputs differ from the pinned table or
    whose warm or hot replay differs from the same pass's cold phase."""
    bad = set()
    cold = {}
    for i, op in enumerate(ops):
        if expected.get(op["key"]) != op["sig"]:
            bad.add(i)
        if op.get("phase") == "cold":
            cold[(op["rep"], op["key"])] = op["sig"]
    for i, op in enumerate(ops):
        if op.get("phase") in ("warm", "hot"):
            ref = cold.get((op["rep"], op["key"]))
            if ref is not None and ref != op["sig"]:
                bad.add(i)
    return sorted(bad)


def failed_checks(checks, expected):
    """Names of post-run checks that did not hold."""
    bad = []
    for c in checks:
        pinned = expected.get(c["name"])
        if not c["ok"] or (pinned is not None and pinned != c["detail"]):
            bad.append(c["name"])
    return bad


def tally(results, expected):
    """(attempted, failed, problems) over hostbench result files."""
    attempted = failed = 0
    problems = []
    for r in results:
        bad_ops = failed_ops(r["ops"], expected)
        bad_checks = failed_checks(r["checks"], expected)
        attempted += len(r["ops"]) + len(r["checks"])
        failed += len(bad_ops) + len(bad_checks)
        problems += [r["ops"][i]["key"] for i in bad_ops] + bad_checks
    return attempted, failed, problems


def failed_frac(attempted, failed):
    return failed / attempted if attempted else 1.0
