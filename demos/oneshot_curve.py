"""Few-shot recognition: accuracy as the per-identity training budget grows.

Each repeat samples k instances per identity to train on and scores the
rest. Identities with too few instances sit out and are reported.
"""

import numpy as np

from partfusion import FusionWeights, SynthConfig, generate
from partfusion.protocols import ONESHOT_REPEATS, eval_oneshot

data = generate(SynthConfig())
fw = FusionWeights(np.ones(len(data.registry.parts)))

report = eval_oneshot(
    data.dataset,
    data.features,
    data.registry,
    fw,
    shots=(1, 2, 3),
)

print(f"{report.n_identities} identities, {ONESHOT_REPEATS} repeats per shot count")
print("shots  mean accuracy  sigma")
for shots, mean, sigma in report.curve:
    print(f"{int(shots):>5}  {mean:>13.4f}  {sigma:.4f}")

for key in sorted(report.flags):
    print(f"{key}: {report.flags[key]}")
