"""
Carton spec, kinematic tree, forward kinematics
===============================================

A carton is declared as panels hinged to a parent by creases. Parsing
validates the structure, the tree derives each joint's subtree (the
panels a fold moves), and forward kinematics turns any joint-angle vector into world panel poses.
"""

import numpy as np

from cartonfold import JointVector, build_tree, forward_kinematics, parse_spec

DOC = """
panels:
  - {id: 1, parent: null, dims_mm: [100, 200, 2]}
  - {id: 2, parent: 1, dims_mm: [80, 190, 2], crease_anchor_mm: [195, 100, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
  - {id: 3, parent: 2, dims_mm: [30, 180, 2], crease_anchor_mm: [5, 80, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
root_pose: {translation_mm: [0, 0, 1]}
environment:
  - {name: table, half_space: true}
"""

spec = parse_spec(DOC)
tree = build_tree(spec)

print("panels:", [p.id for p in spec.panels])
print("foldable joints:", tree.foldable_ids)

# Subtrees are hereditary: folding the wall moves the wall AND its own
# flap; folding the flap moves only the flap.
print("\npanels moved by each joint:")
for pid in tree.ids:
    print(f"  joint {pid}: {tree.subtree_ids(pid)}")

# Flat blank: everything coplanar on the table.
flat = forward_kinematics(tree, JointVector.flat(tree))
for pose in flat:
    print(f"flat  panel {pose.panel_id}: center {np.round(pose.center, 1)}")

# Fold the wall (joint 2): its child flap rides along, still unfolded.
up = forward_kinematics(tree, JointVector.from_folded(tree, {2}))
for pose in up:
    print(f"wall up  panel {pose.panel_id}: center {np.round(pose.center, 1)}")

# Fold both: the flap now tips over the top of the standing wall.
both = forward_kinematics(tree, JointVector.from_folded(tree, {2, 3}))
for pose in both:
    print(f"both  panel {pose.panel_id}: center {np.round(pose.center, 1)}")

# Any intermediate angle works as long as it lies between the declared
# initial and final values.
midway = forward_kinematics(tree, JointVector.flat(tree).replace(2, np.pi / 4))
print("\nwall at 45 degrees, flap center:", np.round(midway[2].center, 1))
