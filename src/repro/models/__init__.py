"""Network zoo: FINN CNV (Table I) and host Models A/B/C (Table III)."""

from .finn_cnv import CNV_CHANNELS, CNV_FC_WIDTH, build_finn_cnv, scaled_channels
from .host_models import build_model_a, build_model_b, build_model_c

__all__ = [
    "CNV_CHANNELS",
    "CNV_FC_WIDTH",
    "scaled_channels",
    "build_finn_cnv",
    "build_model_a",
    "build_model_b",
    "build_model_c",
]
