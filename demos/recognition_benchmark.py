"""Recognition on the synthetic benchmark: fusion vs its ablations.

Generates the default benchmark, learns fusion weights on the validation
split, then scores the test split four ways: full fusion with sparsity
filling, fusion without filling, the global part alone, and a uniform-weight
component ablation.
"""

import numpy as np

from partfusion import FusionWeights, SynthConfig, generate
from partfusion.protocols import eval_ablation, eval_recognition, learn_fusion_weights

data = generate(SynthConfig())
print(
    f"benchmark: {len(data.dataset.instances)} instances, "
    f"{data.config.n_identities} identities per split, "
    f"{len(data.registry.parts)} parts"
)

fw, info = learn_fusion_weights(
    data.dataset, data.features, data.registry, clamp_nonnegative=True
)
print("learned weights (C =", info.best_C, ")")
for part, w in zip(data.registry.parts, fw.w):
    print(f"  {part.name:<12} {w:.4f}")

full = eval_recognition(data.dataset, data.features, data.registry, fw)
nofill = eval_recognition(data.dataset, data.features, data.registry, fw, fill=False)
globl = eval_recognition(
    data.dataset,
    data.features,
    data.registry,
    FusionWeights(np.ones(len(data.registry.parts))),
    component_mask="global",
)

print(f"full fusion + filling   {full.accuracy:.4f}  (halves {full.half_accuracies})")
print(f"fusion without filling  {nofill.accuracy:.4f}")
print(f"global part alone       {globl.accuracy:.4f}")

# component ablation under uniform weights
uniform = FusionWeights(np.ones(len(data.registry.parts)))
reports = eval_ablation(data.dataset, data.features, data.registry, uniform)
print("uniform-weight ablation:")
for mask in ("all", "global", "poselets", "face", "no-fill"):
    print(f"  {mask:<10} {reports[mask].accuracy:.4f}")
