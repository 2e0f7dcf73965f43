"""End-to-end benchmark of training and serving; see README.md.

    python -m benchmarks.e2e run --help
"""
