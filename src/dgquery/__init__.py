"""Incremental continuous-query engine for typed dynamic graph streams."""
