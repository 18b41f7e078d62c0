"""Check the JSON line of one ``bench/run.py`` round against pinned circuit figures.

    python3 bench/run.py --workload paper-flows --seed 1 --seconds 0 --trace 0 \
        | tail -n 1 | python3 .github/check_round.py direct=88655,134,460/600 ...

Each argument pins one flow as ``flow=and_nodes,levels,hits/rows``.  The
round fails unless it is correct with no failed operation and every pinned
flow's ``and_nodes`` and ``levels`` equal the pin and its ``test_acc`` is
within 1e-9 of ``hits/rows``.  A change that moves a circuit on purpose
updates its pin.
"""

import json
import sys

result = json.load(sys.stdin)
metrics = result["metrics"]
problems = []
if result["correct"] is not True or result["failed"] != 0:
    problems.append(f"correct is {result['correct']}, failed is {result['failed']}")
for pin in sys.argv[1:]:
    flow, _, figures = pin.partition("=")
    nodes, levels, acc = figures.split(",")
    hits, rows = acc.split("/")
    want = {"and_nodes": int(nodes), "levels": int(levels), "test_acc": int(hits) / int(rows)}
    for name, value in want.items():
        key = f"{flow}.{name}"
        got = metrics.get(key, {}).get("value")
        if got is None or abs(got - value) > (1e-9 if name == "test_acc" else 0):
            problems.append(f"{key} is {got}, pinned {value}")
for p in problems:
    print(f"check_round: {p}", file=sys.stderr)
sys.exit(1 if problems else 0)
