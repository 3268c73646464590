"""One round of one workload, in a fresh interpreter.

run.py starts this script once per round, with `src` on PYTHONPATH and a
JSON argument {"workload", "seed", "trace", "tiny", "corrupt",
"setup_only"}.  It imports arithjet, draws the inputs from the seed (the
same in every round of a run), prints a ready line, runs the round with
the speed probe on and prints the round's record as one JSON line.  With
"setup_only" it stops after the ready line and a few probe samples.

Every round starts cold, as a fresh `arithjet` process does: the
library's module-level caches are empty.
"""

import json
import random
import resource
import sys

import workloads  # imports arithjet: part of set-up
from workloads import WORKLOADS, Round

SETUP_SAMPLES = 5  # probe samples a set-up-only worker takes for scaling


def main():
    args = json.loads(sys.argv[1])
    plan, run = WORKLOADS[args["workload"]]
    rng = random.Random(f"{args['workload']}:{args['seed']}")
    inputs = plan(rng, args["tiny"])
    print(json.dumps({"ready": True}), flush=True)
    if args["setup_only"]:
        probe = workloads.SpeedProbe()
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        print(json.dumps({"speed_samples": probe.samples}), flush=True)
        return

    tracer = None
    if args["trace"]:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)
        # the probe's time is the benchmark's, not the layer it interrupts
        workloads.reference_loop = tracer.wrap("bench.probe",
                                               workloads.reference_loop)
    rd = Round(tracer, args["corrupt"])
    rd.probe.start()
    try:
        run(rd, inputs)
    finally:
        rd.probe.stop()
    out = rd.to_json()
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["trace"] = tracer.to_json() if tracer else None
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
