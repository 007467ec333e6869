"""Inference with conditional probabilities given as intervals or quantifiers.

The package re-exports nothing, so importing it loads no module: import the
one you need, such as `linquant.network` (knowledge bases and saturation),
`linquant.tables` (the qualitative syllogism table), `linquant.bounds` (the
closed forms) or `linquant.oracle` (the exact LP).  `linquant.cli` is the
command line.
"""

__version__ = "0.1.0"
