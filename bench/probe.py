"""Measure nomafb's set-up in a fresh interpreter; optionally run it once.

usage: python3 probe.py SRC ARGV_JSON [OUT]

Times ``import nomafb.cli`` plus ``parse_config(argv)``, which is everything
before the first block is sampled, as CPU time of the main thread and as wall
time. With OUT, then runs ``cli.main(argv)`` writing its CSV to OUT and reports
the process's peak resident set. Prints one JSON object on stdout.
"""

import json
import sys
import time

src, argv = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
start, start_cpu = time.perf_counter(), time.thread_time()
import nomafb.cli  # noqa: E402

nomafb.cli.parse_config(argv)
report = {"setup_cpu_s": time.thread_time() - start_cpu, "setup_wall_s": time.perf_counter() - start}
if len(sys.argv) > 3:
    import resource

    report["rc"] = nomafb.cli.main(argv + ["--out", sys.argv[3]])
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(report))
