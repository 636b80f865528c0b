"""Set-up as a user pays it: import vmfcorr and parse every config of a workload.

Usage: python3 perfbench/setup_probe.py JOBS.json

The caller times this process from start to exit. Parsing a config includes
building and validating its array geometry. A config that fails to parse
still costs its parse time here.
"""

import json
import sys
from pathlib import Path

import bootstrap


def main(argv):
    jobs = json.loads(Path(argv[1]).read_text())
    vmfcorr = bootstrap.import_vmfcorr()
    for job in jobs:
        if job["kind"] == "cli":
            try:
                vmfcorr.cli.parse_config(job["text"])
            except ValueError:
                pass  # the timed passes count the failing job
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
