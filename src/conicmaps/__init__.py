"""Conical projections of a spherical annulus and their distortion analysis."""

from .cone import (
    Cone,
    ConePoint,
    ConicalAnnulus,
    apex_offset,
    cone_annulus_modulus,
    cone_through_parallels,
    cone_touching_parallel,
    develop,
    sphere_cone_intersections,
)
from .conformal import (
    LambertChart,
    lambert_chart,
    lambert_map,
    lambert_slant_distance,
    lipschitz_constant,
    metric_ratio,
    plane_to_cone,
    plane_to_sphere,
    sphere_to_plane,
)
from .distortion import (
    DistortionReport,
    StretchSample,
    annulus_distortion,
    annulus_distortions,
    bilipschitz_curve,
    log_squared_stretch,
    optimal_alpha_by_root,
    optimal_alpha_by_scan,
    profile_distortion,
    squared_stretch,
)
from .geodata import (
    CurveTable,
    GeoPolyline,
    ParsedLines,
    ProjectedPaths,
    SvgStyle,
    graticule,
    parse_geojson_lines,
    project_polylines,
    render_svg,
    write_csv,
    write_svg,
)
from .projections import (
    COMPARISON_ORDER,
    MeridianProfile,
    ProjectionParams,
    compare_all,
    make_profile,
    project_point,
    stretch_at,
)
from .sphere import (
    PlanarPoint,
    SphericalAnnulus,
    SphericalPoint,
    annulus_modulus,
    spherical_distance,
    spherical_midpoint,
    stereographic_project,
    stereographic_unproject,
)

__version__ = "0.1.0"
