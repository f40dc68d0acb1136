"""Spectrum-sharing co-design between a matrix-completion MIMO radar and a
MIMO communication system: interference metrics, covariance design,
sampling-mask optimization, matrix-completion recovery and an experiment
harness. Import each name from its module (specshare.harness,
specshare.covdesign, ...); the package itself holds only __version__."""

__version__ = "0.1.0"
