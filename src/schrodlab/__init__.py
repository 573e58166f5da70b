"""schrodlab: a numerical laboratory for conjugated Schrodinger multipliers,
Strichartz estimates, Birman-Schwinger contractions, CGO solutions, Born
reconstruction from initial-to-final-state data, and Bourgain-space
embedding counterexamples."""

__version__ = "0.1.0"
