"""Walk through sparsity filling and score fusion on a 3-identity example.

A part classifier only knows the identities it saw during training. Filling
densifies its prediction with the global classifier's distribution so every
part votes over the same identity set before fusion.
"""

import numpy as np

from partfusion import FusionWeights, fill_sparsity, fuse_matrix

# global classifier distribution over identities {0, 1, 2}
p0 = np.array([0.5, 0.3, 0.2])
print("global distribution     ", p0)

# a part trained only on identities {0, 1} predicts within that set
F = np.array([0, 1])
p_hat = np.array([0.9, 0.1, 0.0])
print("part coverage           ", F.tolist())
print("raw part prediction     ", p_hat)

# how much global mass falls on the part's identities decides the blend
mass = float(p0[F].sum())
print("coverage mass           ", mass)

filled = fill_sparsity(p_hat, p0, F, activated=True)
print("filled part prediction  ", filled)
assert abs(filled.sum() - 1.0) < 1e-12

# an instance where the part saw nothing copies the global row verbatim
inactive = fill_sparsity(None, p0, F, activated=False)
print("inactive part fill      ", inactive)

# fusion is a weighted sum of the filled distributions, one row per instance
fw = FusionWeights(np.array([1.0, 1.5]))
fused = fuse_matrix([(0, p0[None, :]), (1, filled[None, :])], fw)[0]
print("fused scores            ", fused)
print("predicted identity      ", int(np.argmax(fused)))
