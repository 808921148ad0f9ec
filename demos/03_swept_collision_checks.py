"""
Swept collision checks and grasp advisories
===========================================

A fold action sweeps its whole subtree from the initial to the final angle.
The check samples that motion at the spec's tolerance angle and tests every
sample against the other panels, fixture boxes, and the table half-space.
Everything it needs comes from the kinematic tree built from the spec.
"""

from dataclasses import replace

import numpy as np

from cartonfold import OrientedBox, collision_check, grasp_side, sweep_angles
from cartonfold.model import build_tree, parse_spec
from cartonfold.reference import JointVector, forward_kinematics

DOC = """
panels:
  - {id: 1, parent: null, dims_mm: [100, 200, 2]}
  - {id: 2, parent: 1, dims_mm: [60, 190, 2], crease_anchor_mm: [195, 0, 0],
     crease_dir: [-1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
root_pose: {translation_mm: [0, 0, 1]}
environment:
  - {name: table, half_space: true}
gripper: {dims_mm: [40, 40, 20], standoff_mm: 3}
planner: {tolerance_angle_deg: 5, penetration_tolerance_mm: 1.05}
"""

spec = parse_spec(DOC)
tree = build_tree(spec)

# The sweep of a 90 degree fold at 5 degree granularity: both endpoints are
# always sampled, whatever the divisibility.
phis = sweep_angles(0.0, np.pi / 2, spec.tolerance_angle)
print(f"sweep samples: {len(phis)}, first {np.degrees(phis[0]):.0f} deg,",
      f"last {np.degrees(phis[-1]):.0f} deg")

# Nothing in the way: folding joint 2 out of the flat state (fold mask 0)
# is feasible.
print("free fold feasible:", collision_check(tree, 0, 2))

# Drop a fixture right on the flap's mid-arc pose and the same fold dies.
mid = forward_kinematics(tree, JointVector.flat(tree).replace(2, np.pi / 4))
beam = OrientedBox.from_center(mid[1].solid.center, dims=(20, 20, 20))
with_beam = build_tree(replace(spec, environment=(beam,)))
print("fold through a beam:  ", collision_check(with_beam, 0, 2))

# Grasp advisory for the spec's gripper: the inner face is the one facing
# the fold direction. An upward fold is grasped from above (inside); a
# downward fold's inner face rests on the table, so the tool must take the
# outside.
print("upward fold grasp: ", grasp_side(tree, 0, 2).value)

DOWN = DOC.replace("theta_final_deg: 90", "theta_final_deg: -90")
down_tree = build_tree(parse_spec(DOWN))
print("downward fold grasp:", grasp_side(down_tree, 0, 2).value)
