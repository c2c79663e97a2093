#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the reports/ directory written by
`repro --all --full --out reports/`.

Each report carries `paper vs measured` comparison rows; this script
collects them into one paper-vs-measured ledger plus the raw report bodies.
"""
import os
import re
import sys

REPORTS = sys.argv[1] if len(sys.argv) > 1 else "reports"
OUT = sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md"

ORDER = [
    "table1", "table2", "table3", "table4", "sec41_dmips", "fig02_03",
    "sec42_membw", "table5", "sec44_net", "table6", "fig04_07", "fig05_08",
    "fig06_09", "fig10_11", "table7", "fig12_17", "table8", "sec53_speedup",
    "table9", "table10", "fault_sweep", "explore", "overload_sweep",
    "ext_hybrid", "ext_failure", "ext_platforms", "ext_dvfs",
]

HEADER = """# EXPERIMENTS — paper vs measured

Generated from `cargo run --release -p edison-core --bin repro -- --all
--full --out reports/` (see README). Every table and figure of the paper is
regenerated by the simulation; the ledger below records the paper's value,
our measured value and the ratio for each headline metric, followed by the
full regenerated artefacts.

Reading the ratios: primary hardware capacities (Tables 2/3/5, §4 numbers)
are *inputs* fitted from the paper, so their ratios are ≈1.00 by
construction — they verify the models round-trip. The cluster-level results
(Figures 4–19, Tables 7/8) are *outputs* of the simulation mechanics; their
ratios measure reproduction quality. The shapes the paper argues from —
who wins work-done-per-joule where, error onsets, scaling slopes — are
asserted in `tests/headline_results.rs`.

## Known deviations (and why we accept them)

* **wordcount on sub-clusters (edison-17/8/4, ratios ≈0.6-0.7)** — the
  paper's small-cluster wordcount cells degrade *super-linearly* (17 nodes
  are 3.4× slower than 35), which its own text does not explain; our model
  degrades linearly with capacity. Monotone ordering and the energy-winner
  structure are preserved.
* **logcount2 on edison-17/8/4 (ratios ≈1.9, 3.1 and 4.2)** — the paper
  reports almost no slowdown as the cluster shrinks (115 s at 35 nodes,
  118 s at 17, 125 s at 8, 162 s at 4), implying its runs were fully
  overhead-bound; our model still sees compute scaling, so the gap grows
  with every halving.
* **Table 7 Edison cache delay at 7680 req/s (ratio ≈0.3)** — both show the
  two-orders-of-magnitude blow-up from ~5 ms to ~100+ ms as the cluster
  saturates; our queueing saturates at a lower absolute ceiling.
* **Table 7 Edison db delay (ratios ≈0.53 at 480 req/s, ≈0.31 at 7680)**
  — our db delay runs from the query leaving the web node to the reply
  landing on it, and charges no CPU on the Edison side of that leg. The
  paper's PHP timestamps most likely also cover the slow Edison core's
  MySQL client work and, at 7680 req/s, the wait for that saturated core,
  where its delay doubles.
* **Table 7 Dell cache delay at 480 req/s (ratio ≈2.25)** — our cache delay
  closes at the end of stage-2 CPU, so it carries the whole reply-assembly
  slice (≈0.4 ms on an idle Dell core), where the paper's timestamps
  bracket only the get and the unserialize. The absolute gap is half a
  millisecond.
* **Dell wordcount2/terasort cells (ratios 1.3-1.8)** — the residual
  container-overhead structure on the Dell is coarser in our model (one
  fixed per-task cost); the optimisation *direction* and the
  work-done-per-joule winners match the paper everywhere.
* **Figures 10/11** are compared structurally (retry-spike presence), not
  by bin mass: the paper's sample counts depend on its logging clients'
  pacing, which it does not specify.

## Comparison ledger

| experiment | metric | paper | measured | ratio |
|---|---|---:|---:|---:|
"""

rows = []
bodies = []
cmp_re = re.compile(r"^\s{4}(.*?)\s+paper\s+([-\d.]+)\s+measured\s+([-\d.]+)\s+ratio\s+([-\d.NaN]+)\s*$")

for rid in ORDER:
    path = os.path.join(REPORTS, f"{rid}.txt")
    if not os.path.exists(path):
        continue
    text = open(path).read()
    bodies.append((rid, text))
    for line in text.splitlines():
        m = cmp_re.match(line)
        if m:
            metric, paper, measured, ratio = m.groups()
            rows.append(f"| {rid} | {metric.strip()} | {paper} | {measured} | {ratio} |")

with open(OUT, "w") as f:
    f.write(HEADER)
    f.write("\n".join(rows))
    f.write("\n\n## Regenerated artefacts\n\n")
    for rid, text in bodies:
        f.write(f"### {rid}\n\n```text\n{text}\n```\n\n")

print(f"wrote {OUT} with {len(rows)} comparison rows and {len(bodies)} artefacts")
