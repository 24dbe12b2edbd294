"""Experiment orchestration: configs, runners, bundles, the CLI.

``python -m reachlab.harness.cli`` runs this file first, and the CLI
must pin BLAS threads before anything imports numpy, so it imports
nothing.
"""
