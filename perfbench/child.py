"""One measured program process: ``import repro.cli``, then ``repro.cli.main``.

    python3 perfbench/child.py REPORT MODE -- ARGV...

MODE is ``setup`` (import only), ``plain`` (run ``repro.cli.main(ARGV)``)
or ``trace`` (the same, with the outside-in span recorder of
:mod:`spans` installed first).  ``repro serve`` runs here too, and its
report is written once SIGTERM has drained it.  The REPORT file gets the
``perf_counter`` instants around the import and the main call, the exit
code, the peak RSS and, when traced, the spans and the program's own
counters.  ``perf_counter`` is ``CLOCK_MONOTONIC``, so the parent compares
these instants with its own launch time.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "plain", "trace"):
        raise SystemExit("usage: child.py REPORT {setup,plain,trace} -- ARGV...")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    report = {"import_start": time.perf_counter()}
    import repro.cli

    report["import_done"] = time.perf_counter()
    rc = 0
    recorder = None
    if mode != "setup":
        if mode == "trace":
            from spans import Recorder

            recorder = Recorder(label_points=argv[:1] == ["serve"])
            recorder.install()
        report["main_start"] = time.perf_counter()
        rc = repro.cli.main(argv)
        report["main_end"] = time.perf_counter()
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        report["spans"] = recorder.export()
        report["counts"] = recorder.program_counts()
    tmp = report_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, report_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
