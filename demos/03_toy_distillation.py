"""Toy distillation run: transport losses vs plain cross-entropy training.

A frozen random teacher table (20-entry vocabulary) is distilled into a
student table with 15 entries. Both modes train on the same pseudo-labels;
the multilevel mode additionally matches the teacher's probability shape
through the token- and sequence-level transport losses. The sequence-level
transport loss on the evaluation blocks, also trained, shows the
difference.

Run with:  python3 demos/03_toy_distillation.py     (about 10 seconds)
"""

from dataclasses import replace

from otdistill import DistillConfig, run_distillation

cfg = DistillConfig(seed=1, m=20, n=15, tokens=8, contexts=32,
                    steps=500, lr=0.5)

runs = {
    "multilevel_ot": run_distillation(cfg),
    "ce_only": run_distillation(replace(cfg, mode="ce_only")),
    "uld": run_distillation(replace(cfg, mode="uld")),
}

print(f"{'step':>5}  " + "  ".join(f"{name:>14}" for name in runs))
for step in (0, 50, 100, 250, 499):
    row = "  ".join(f"{runs[name].eval_sd[step]:14.4f}" for name in runs)
    print(f"{step:>5}  {row}")

best = min(runs, key=lambda name: runs[name].eval_sd[-1])
print("\nlowest final transport loss on the evaluation blocks, also "
      "trained:", best)

m = runs["multilevel_ot"]
print("multilevel components at the last step: "
      f"ce {m.ce[-1]:.3f}, had {m.had[-1]:.3f}, "
      f"sl {m.sl[-1]:.3f}, sd {m.sd[-1]:.3f}")
