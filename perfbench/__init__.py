"""The repo benchmark: workloads, span tracing and metrics (see README.md)."""
