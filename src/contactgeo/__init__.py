"""Contact-geometric phase space toolkit.

Expression-backed differential geometry on the (2n+1)-dimensional Darboux
phase space: Heisenberg frames, contact Hamiltonian flows, almost (para)
contact structures and their scaled deformations, the metrics they induce,
curvature, and Legendre-submanifold pullbacks from fundamental relations.
"""

from .expr import (EvalError, Expr, ParseError, const, differentiate, evaluate,
                   parse, to_string, var)
from .phase_space import (CoordinateMap, TensorField, contact_form, coord_names,
                          d_eta, frame, sample_points)
from .hamiltonian import (IndexSubset, closed_form_commutator,
                          generator_commutator, hamiltonian_vector_field,
                          integrate_flow, legendre_map, rotation_flow,
                          rotation_generator, scaling_generator, scaling_map)
from .structures import (StructureKind, build_structure, lambda_legendre_residual,
                         product_lambda, scaling_residuals, structure_identities)
from .metrics import (Metric, MetricKind, associated_pairs, compatibility_pairs,
                      metric_from_structure)
from .calculus import (CurvatureReport, SingularMetricError, lie_bracket,
                       lie_derivative, require_nonsingular, ricci)
from .equilibrium import (FundamentalRelation, SystemCatalogEntry, catalog,
                          embed, involution_check, legendre_potential)

__version__ = "0.1.0"
