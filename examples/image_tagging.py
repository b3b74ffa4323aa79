"""Image tagging: multiple-choice tasks via the paper's §2 transformation.

"For an image tagging task (multiple-choice), each transformed
decision-making task asks whether or not a tag is contained in an
image."  This example runs that pipeline end to end: ground-truth tag
sets → one decision task per (image, tag) → truth inference → recovered
tag sets, scored with multi-label Jaccard/F1.

Run:  python examples/image_tagging.py
"""

import numpy as np

from repro import ExecutionPolicy, MethodSpec, create
from repro.datasets import (
    build_multichoice_dataset,
    decisions_to_tag_sets,
    tag_set_f1,
    tag_set_jaccard,
)
from repro.simulation import reliable_worker, spammer

TAG_NAMES = ("cat", "dog", "person", "car", "tree")


def main() -> None:
    rng = np.random.default_rng(4)
    n_images, n_tags = 80, len(TAG_NAMES)

    # Ground truth: each image carries 0-3 of the 5 tags.
    tag_sets = [
        sorted(rng.choice(n_tags, size=rng.integers(0, 4),
                          replace=False).tolist())
        for _ in range(n_images)
    ]

    workers = [reliable_worker(float(rng.uniform(0.75, 0.95)), 2)
               for _ in range(10)] + [spammer(2)] * 2
    dataset = build_multichoice_dataset(tag_sets, n_tags, workers,
                                        redundancy=5, seed=0,
                                        name="image_tags")
    print(f"{n_images} images × {n_tags} tags "
          f"-> {dataset.n_tasks} decision tasks, "
          f"{dataset.answers.n_answers} answers")
    print()

    print(f"{'method':>6}  {'tag-set Jaccard':>15}  {'micro-F1':>9}")
    print("-" * 36)
    for name in ("MV", "ZC", "D&S"):
        result = create(MethodSpec(name, seed=0)).fit(dataset.answers)
        recovered = decisions_to_tag_sets(result, n_images, n_tags)
        print(f"{name:>6}  {tag_set_jaccard(tag_sets, recovered):>15.4f}"
              f"  {tag_set_f1(tag_sets, recovered):>9.4f}")

    # The same fit under an ExecutionPolicy: sharded map-reduce EM,
    # identical numbers (the tag grid is one flat decision task space,
    # so it shards like any large workload would).
    policy = ExecutionPolicy(n_shards=4, executor="serial")
    result = create(MethodSpec("D&S", seed=0)).fit(dataset.answers,
                                                   policy=policy)
    recovered = decisions_to_tag_sets(result, n_images, n_tags)
    print()
    print("sample recoveries (D&S):")
    for image in range(5):
        want = ", ".join(TAG_NAMES[t] for t in tag_sets[image]) or "(none)"
        got = ", ".join(TAG_NAMES[t] for t in sorted(recovered[image])) \
            or "(none)"
        marker = "ok " if set(tag_sets[image]) == recovered[image] else "DIFF"
        print(f"  image {image}: truth=[{want}]  inferred=[{got}]  {marker}")


if __name__ == "__main__":
    main()
