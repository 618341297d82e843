"""Child processes of the benchmark, run with ``src`` on PYTHONPATH.

    python3 bench/child.py setup CONFIG
        Only the set-up a CLI run does before its ensemble: import qntklab,
        load the config, realize the observable and take Tr O, Tr O^2, Tr O^4.

    python3 bench/child.py trace CONFIG OUT_DIR SPANS_FILE
        The experiment run in process with every traced function wrapped;
        the spans are written to SPANS_FILE when it ends.
"""

import sys
from pathlib import Path


def setup(config: str) -> int:
    from qntklab import experiments

    cfg = experiments.load_config(config)
    obs = experiments.realize_observable(cfg)
    for k in (1, 2, 4):
        obs.trace_power(k)
    return 0


def trace(config: str, out_dir: str, spans_file: str) -> int:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from qntklab import experiments

    cfg = experiments.load_config(config)
    code = experiments.run_experiment(cfg, out_dir)
    tracer.dump(Path(spans_file))
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    raise SystemExit({"setup": setup, "trace": trace}[mode](*rest))
