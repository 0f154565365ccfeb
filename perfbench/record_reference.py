"""Record the gate's reference values into perfbench/reference.json.

    python3 perfbench/record_reference.py

Runs each workload's reference rounds on the reference seed and writes
their summaries (error quantiles, failure counts, LM iteration counts,
planned lamp counts).  Record them only on a commit whose outputs are
trusted; a run compares against them within the tolerances documented in
``run.compare_reference``.
"""

import json

import run


def main():
    run.load_lightpos()
    from workloads import WORKLOADS
    recorded = {
        "reference_seed": run.REFERENCE_SEED,
        "git_sha": run.git_sha(),
        "workloads": {
            name: {key: value for key, (_, value)
                   in run.reference_summary(name).items()}
            for name in WORKLOADS
        },
    }
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
