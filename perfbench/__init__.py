"""A seeded end-to-end benchmark of repro, with per-layer attribution."""
