"""Set-up cost as a user pays it: a fresh interpreter imports traintrack and
parses every document of a workload once.

Usage: python -E -s perfbench/setup_probe.py SRC_DIR < documents.json
where documents.json is a JSON list of document texts.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])
docs = json.load(sys.stdin)

from traintrack.cli import parse_document  # noqa: E402

for text in docs:
    parse_document(text)
