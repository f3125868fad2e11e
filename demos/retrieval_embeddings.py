"""Identity retrieval from fused probability embeddings.

Part classifiers trained on the validation split turn any instance into a
probability vector over the reference identities. Instances of the same
person land near each other even though the test identities were never seen
in training, so nearest-neighbor search retrieves them.
"""

import numpy as np

from partfusion import SynthConfig, generate
from partfusion.protocols import (
    build_identity_embeddings,
    learn_fusion_weights,
    run_retrieval_protocol,
    train_reference_models,
)

data = generate(SynthConfig())
fw, _ = learn_fusion_weights(
    data.dataset, data.features, data.registry, clamp_nonnegative=True
)

# same-identity embeddings sit closer together than cross-identity ones
ref = train_reference_models(data.dataset, data.features, data.registry)
insts = sorted(data.dataset.split_instances("test"), key=lambda i: i.instance_id)[:100]
ids = np.asarray([i.instance_id for i in insts], dtype=np.int64)
embs = dict(zip(ids.tolist(), build_identity_embeddings(ids, data.features, ref, fw, data.registry.part_ids)))
intra, inter = [], []
for a in insts:
    for b in insts:
        if a.instance_id < b.instance_id:
            d = float(np.linalg.norm(embs[a.instance_id] - embs[b.instance_id]))
            (intra if a.identity == b.identity else inter).append(d)
print(f"mean embedding distance, same identity: {np.mean(intra):.3f}")
print(f"mean embedding distance, different:     {np.mean(inter):.3f}")

report = run_retrieval_protocol(
    data.dataset, data.features, data.registry, fw, K_list=(1, 2, 5, 10, 20)
)
print(f"{report.n_test} queries over {report.n_identities} identities")
print("   K  recall@K")
for k, recall, _ in report.curve:
    print(f"{int(k):>4}  {recall:.4f}")
