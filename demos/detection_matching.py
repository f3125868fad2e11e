"""Assign person detections to ground-truth head boxes in one photo.

Ground truth marks heads; detectors report whole bodies. A head box is
extrapolated to its expected body box, candidate pairs need enough overlap,
and a maximum-cardinality matching picks the final assignment.
"""

from partfusion import (
    BBox,
    Detection,
    Instance,
    activations_per_instance,
    body_from_head,
    iou,
    match_detections,
)

# three annotated people; the matcher only reads instance_id and head
truths = [
    Instance(101, 1, 1, 1, BBox(40.0, 30.0, 22.0, 24.0), 0, "test"),
    Instance(102, 1, 1, 1, BBox(120.0, 28.0, 20.0, 20.0), 1, "test"),
    Instance(103, 1, 1, 1, BBox(200.0, 35.0, 24.0, 26.0), 2, "test"),
]

for t in truths:
    body = body_from_head(t.head)
    print(f"instance {t.instance_id}: head {t.head} -> expected body {body}")

# two detections sit on real bodies, one is jittered, one is a false alarm
def detection_near(det_id, head, dx, dy, score):
    body = body_from_head(head)
    box = BBox(body.x + dx, body.y + dy, body.w, body.h)
    return Detection(det_id, box, score, ((3, box, 0.9),))

detections = [
    detection_near(1, truths[0].head, 2.0, -3.0, 0.92),
    detection_near(2, truths[2].head, -4.0, 5.0, 0.80),
    detection_near(3, truths[1].head, 15.0, 20.0, 0.65),
    Detection(4, BBox(400.0, 300.0, 60.0, 120.0), 0.99, ()),
]

for d in detections:
    overlaps = [round(iou(body_from_head(t.head), d.person_box), 3) for t in truths]
    print(f"detection {d.detection_id}: IoU vs truths {overlaps}")

# a pair needs IoU >= matching.TAU_IOU; matching.LAMBDA_SCORE mixes score and IoU in its weight
assignment = match_detections(truths, detections)
print("matched pairs           ", assignment.pairs)
print("unmatched truths        ", assignment.unmatched_truths)
print("unmatched detections    ", assignment.unmatched_detections)
print("total assignment weight ", round(assignment.total_weight, 4))

# matched instances inherit the detection's part activations plus the body
table = activations_per_instance(assignment, truths, detections)
for iid in sorted(table):
    parts = [(part_id, round(act, 2)) for part_id, _, act in table[iid]]
    print(f"instance {iid} activations: {parts}")
