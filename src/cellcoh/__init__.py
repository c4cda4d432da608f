"""Exact differential cohomology machinery on finite cell complexes.

Cellular cochains over Q play the role of differential forms throughout:
the coboundary is the de Rham differential of the model, closed cochains
are the closed forms, and every identity of the differential cohomology
package (the hexagon, the homotopy formula, integration over the circle)
is verified by exact linear algebra over Z and Q.  A floating-point layer
reproduces curvature, character-form, transgression and holonomy numerics
for expression-defined connections.
"""

from .chains import (ChainMap, Complex, FgAbGroup, atom, cone, direct_sum,
                     fiber, homology, shift, truncate_above, truncate_below)
from .cells import (CellComplex, bundled_complex, circle_product,
                    cochain_complex, fiber_integrate_circle,
                    fiber_integrate_prism, prism, simplicial_from_facets,
                    star_cover)
from .diffcoh import (DifferentialCochain, curvature_R, dhat, equal_classes,
                      flat_part, forms_a, hexagon_exactness,
                      homotopy_formula_check, pullback_classification_check,
                      s1_integrate, underlying_I)
from .tot import (CosimplicialComplexTrunc, SimplicialComplexOfComplexes,
                  cech_double, descent_check, total_complex,
                  underlying_at_point)
from .exprs import parse_expr, symbolic_d
from .bundles import (BGradedForm, Loop, SmoothConnection, bch_zero,
                      chern_character_form, curvature, holonomy,
                      transgress_ch)
from .lattice import (LatticeLineBundle, SurfaceChart,
                      cs_property_check, cycle_map_homotopy_check,
                      differential_character, gauge_transform, lattice_class,
                      monopole)

__version__ = "0.1.0"
