"""Desk-scale laboratory for document-level minimum risk training."""

from . import harness, metrics, model, mrt, sampling, textcore
