"""The measured process: one fresh interpreter per use.

    python3 bench/worker.py setup SRC CONFIG...
        Time the set-up of a workload: import covspec, load every config and
        build its mixture, generator specs and backend choice. Prints the
        seconds as JSON.

    python3 bench/worker.py passes SPEC.json
        Run the workload's command sequence through covspec.cli.main, pass
        after pass, until the time budget in the spec is spent. With tracing
        on, passes run untraced, traced, traced, untraced, ... so that a
        linear drift of the host's speed affects both kinds alike. Writes the
        result JSON (and the traced spans) to the paths the spec names.

Only the standard library is imported before the clock starts.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _import_covspec(src: str):
    sys.path.insert(0, src)
    import covspec

    if not os.path.abspath(covspec.__file__).startswith(os.path.abspath(src)):
        raise ImportError(f"covspec was imported from {covspec.__file__}, not {src}")
    return covspec


def setup(src: str, configs: list[str]) -> float:
    _import_covspec(src)
    from covspec.config import load_config

    for path in configs:
        config = load_config(path)
        if config.class_configs:
            mixture = config.mixture()
            config.generator_pairs()
            mixture.spectral()
    return time.perf_counter() - _T0


def _run_command(cli, argv, tracer, roots):
    start = time.perf_counter()
    error = None
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call(f"cli.{argv[0]}", cli.main, (argv,))
            roots[tracer.spans[-1].id] = argv[0]
    except SystemExit as exc:  # argparse rejects an argument list
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    return {"argv": argv, "rc": rc, "seconds": time.perf_counter() - start,
            "error": error}


def passes(spec: dict) -> dict:
    _import_covspec(spec["src"])
    from covspec import cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics, span_cost

        tracer = Tracer()
    results = []
    traced_spans = []
    walls = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 4 in (1, 2)
        out = os.path.join(spec["out_root"], f"pass{index}")
        roots = {}
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            commands = []
            for label, argv in spec["commands"]:
                argv = [a.replace("{out}", out) for a in argv]
                record = _run_command(cli, argv, tracer if traced else None, roots)
                record["label"] = label
                commands.append(record)
                if record["rc"] == 0:
                    workloads.after_command(label, out)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        entry = {"index": index, "traced": traced, "wall": wall, "out": out,
                 "commands": commands}
        if traced:
            spans = tracer.spans[first_span:]
            entry["layers"] = layer_metrics(spans, roots)
            entry["spans"] = len(spans)
            traced_spans.extend(span.record(spec["workload"], index)
                                for span in spans)
        results.append(entry)
        walls.append(wall)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= spec["min_passes"] and (
            elapsed + statistics.median(walls) > spec["seconds"]
        ):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"passes": results, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        with open(spec["spans_path"], "w") as handle:
            for record in traced_spans:
                handle.write(json.dumps(record) + "\n")
        result["span_cost_s"] = span_cost()
    return result


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        print(json.dumps({"setup_s": setup(argv[1], argv[2:])}))
        return 0
    if len(argv) == 2 and argv[0] == "passes":
        with open(argv[1]) as handle:
            spec = json.load(handle)
        result = passes(spec)
        with open(spec["result_path"], "w") as handle:
            json.dump(result, handle)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
