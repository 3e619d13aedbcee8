"""One fresh benchmark process: a probe, input generation, or a pass.

    python3 perfbench/passrun.py setup
    python3 perfbench/passrun.py ref
    python3 perfbench/passrun.py gen SEED DIR
    python3 perfbench/passrun.py pass WORKLOAD INPUTS WORK TRACE PASS_ID OUT

``setup`` prints the seconds this fresh interpreter took to import
tracesos, build the CLI parser and load every golden file.  ``ref``
prints the seconds of a fixed stdlib-only computation (no tracesos),
run.py's yardstick for how fast the machine is right now.  ``pass`` runs
one workload pass (traced when TRACE is 1) and writes its observations,
error and spans to OUT as JSON.  tracesos is found on PYTHONPATH, which
run.py points at the checkout's ``src``.
"""

import time

# Set-up time counts from here, before anything else is imported.
T0 = time.perf_counter()

import sys  # noqa: E402


def setup() -> float:
    from tracesos import cli, golden

    cli.build_parser()
    for name in golden.available():
        golden.load(name)
    return time.perf_counter() - T0


def reference() -> float:
    """Time a fixed mix of the work tracesos does most -- dict updates on
    tuple keys, big-int and Fraction arithmetic -- over a working set of
    tens of MB, so cache and memory contention slow it as they slow a
    pass."""
    import random
    from fractions import Fraction

    start = time.perf_counter()
    acc = {(i % 1009, i // 1009, i % 3): i for i in range(200000)}
    keys = list(acc)
    random.Random(1).shuffle(keys)
    for k in keys:
        acc[k] += k[0] * k[1]
    for k in keys[:40000]:
        acc[k] = Fraction(acc[k], 1 + k[2])
    return time.perf_counter() - start


def run_pass(workload: str, inputs: str, work: str, trace: bool,
             pass_id: int, out: str) -> None:
    import json
    import traceback

    import workloads
    from tracer import Tracer

    obs: dict = {}
    error = None
    tracer = Tracer(pass_id)
    body = workloads.PASSES[workload]
    try:
        if trace:
            with tracer.installed(), tracer.region("pass"):
                body(obs, inputs, work)
        else:
            body(obs, inputs, work)
    except Exception:
        error = traceback.format_exc()
    with open(out, "w") as fh:
        json.dump({"observations": obs, "error": error, "spans": tracer.spans}, fh)


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        print(repr(setup()))
    elif mode == "ref":
        print(repr(reference()))
    elif mode == "gen":
        import workloads

        workloads.generate_inputs(int(argv[1]), argv[2])
    elif mode == "pass":
        workload, inputs, work, trace, pass_id, out = argv[1:7]
        run_pass(workload, inputs, work, trace == "1", int(pass_id), out)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
