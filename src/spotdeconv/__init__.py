"""Group-sparse, non-negative multi-kernel deconvolution of immunoassay
images, with accelerated proximal gradient solving and spot detection."""

__version__ = "0.1.0"
