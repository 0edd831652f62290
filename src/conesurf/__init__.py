"""Flat surfaces with cone singularities: triangulations, flips, linear
charts and volume densities."""

__version__ = "0.1.0"

from .surface import (  # noqa: F401
    FlatSurface,
    SurfaceSpec,
    build_surface,
    isomorphic,
    load_surface,
    make_doubled_polygon,
    make_regular_4g_gon,
    make_torus,
    save_surface,
)
