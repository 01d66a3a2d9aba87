"""Safety caps used by the CLI and the two values of its --norm flag."""

MAX_DIM = 64
MAX_GENERATORS = 8
MAX_WORDS = 10_000_000
KRON_CAP = 4096

NORM_SPECTRAL = "spectral"
NORM_FROBENIUS = "frobenius"
