"""Product-dyadic weights, embedding constants, and rectangular fractional integrals."""

__version__ = "0.1.0"

from .grids import (Box, DegeneratePairError, DepthExceededError, DyadicCube,
                    GridConfig, ProductRect, children, cube_box, min_rect,
                    minimal_cube, parent, product_minimal, rect_box, replace,
                    shift_cover, triple)
from .weights import (AlignmentError, GridFunction, Weight,
                      WeightFormatError, gen_cascade, gen_power, gen_uniform,
                      integrate, load_weight, lp_norm, save_weight)
from .conditions import (ConstantReport, carleson_testing_constant,
                         condition_d_constant, doubling_constant,
                         fp_constant, reverse_doubling_constant,
                         tail_bound)
from .operators import (ExponentConfig, ExponentError, RectKernel,
                        apply_frac_dyadic, apply_frac_kernel, apply_perez,
                        apply_positive, kernel_sum, mlinear_form, pair_kernel,
                        shift_bound_ratio)
from .estimators import (NormEstimate, SweepRow, carleson_norm_lower,
                         depth_sweep, embed_norm_lower, operator_norm_lower,
                         rows_to_csv)

__all__ = [
    "__version__",
    "Box", "DegeneratePairError", "DepthExceededError", "DyadicCube",
    "GridConfig", "ProductRect", "children", "cube_box", "min_rect",
    "minimal_cube", "parent", "product_minimal", "rect_box", "replace",
    "shift_cover", "triple",
    "AlignmentError", "GridFunction", "Weight", "WeightFormatError",
    "gen_cascade", "gen_power", "gen_uniform", "integrate", "load_weight",
    "lp_norm", "save_weight",
    "ConstantReport", "carleson_testing_constant", "condition_d_constant",
    "doubling_constant", "fp_constant", "reverse_doubling_constant",
    "tail_bound",
    "ExponentConfig", "ExponentError", "RectKernel", "apply_frac_dyadic",
    "apply_frac_kernel", "apply_perez", "apply_positive", "kernel_sum",
    "mlinear_form", "pair_kernel", "shift_bound_ratio",
    "NormEstimate", "SweepRow", "carleson_norm_lower", "depth_sweep",
    "embed_norm_lower", "operator_norm_lower", "rows_to_csv",
]
