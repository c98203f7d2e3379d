"""The config-driven pipeline: one JSON document, one reproducible report.

Writes a CSV of coin flips and an analysis configuration, then executes
the whole task list (projection, score ranking, nested test, raking)
exactly as ``totem run analysis.json`` would.  Identical config + data +
seed give a byte-identical report.
"""

import json
import tempfile
from pathlib import Path

from totem import sample_multinomial
from totem.cli import AnalysisConfig, run
from totem.closed_forms import binomial_projection_closed_form, coin_space

workdir = Path(tempfile.mkdtemp(prefix="totem-demo-"))

# synthesize a data file: 1000 subjects, two flips each, 0.7 coin
space = coin_space(2)
counts = sample_multinomial(binomial_projection_closed_form(2, 0.7, space), 1000, seed=66)
lines = ["s1,s2"]
for idx, count in enumerate(counts):
    lines.extend([",".join(space.entity_at(idx))] * int(count))
csv_path = workdir / "flips.csv"
csv_path.write_text("\n".join(lines) + "\n")

config = AnalysisConfig(
    data=str(csv_path),
    space={
        "domains": [
            {"name": "s1", "levels": ["head", "tail"]},
            {"name": "s2", "levels": ["head", "tail"]},
        ],
        "nullentities": [],
    },
    reference="uniform",
    elements={
        "mean": ["identity", "success(head)"],
        "spectrum": ["k_marginal(0, head)", "k_marginal(1, head)", "k_marginal(2, head)"],
    },
    tasks=[
        {"type": "project", "element": "mean"},
        {"type": "score", "elements": ["mean", "spectrum"]},
        {"type": "test", "outer": "mean", "inner": "spectrum", "alpha": 0.05},
        {"type": "ipf", "element": "spectrum"},
    ],
    seed=66,
)
config_path = workdir / "analysis.json"
config_path.write_text(config.to_json())
print(f"wrote {csv_path.name} and {config_path.name} under {workdir}\n")

code, report = run(config)
print(report)
print(f"exit code: {code}")

code2, report2 = run(config)
print(f"re-run is byte-identical: {report == report2}")
print(f"\nequivalent shell command:\n  totem run {config_path}")
print(f"config round-trips: "
      f"{AnalysisConfig.from_json(config_path.read_text()) == config}")
assert json.loads(config.to_json()) == config.to_dict()
