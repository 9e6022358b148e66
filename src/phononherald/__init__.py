"""Pulsed photon-phonon pair generation/read-out simulation and
photon-counting correlation analysis."""

__version__ = "0.1.0"
