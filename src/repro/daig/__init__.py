"""Demanded abstract interpretation graphs: the paper's core contribution."""

from . import names
from .build import DaigBuilder, reset_unroll_table_stats, unroll_table_stats
from .edit import InvalidEditError, dirty_forward, write_cell
from .engine import DaigEngine, EditStats
from .graph import (
    Computation,
    Daig,
    FIX,
    IllFormedDaigError,
    JOIN,
    TRANSFER,
    WIDEN,
)
from .memo import MemoTable
from .names import Name, fix_name, prejoin_name, prewiden_name, state_name, stmt_name
from .query import MAX_UNROLLINGS, QueryEvaluator, QueryStats
from .splice import SpliceReport, splice

__all__ = [
    "names",
    "DaigBuilder",
    "unroll_table_stats",
    "reset_unroll_table_stats",
    "InvalidEditError",
    "dirty_forward",
    "write_cell",
    "DaigEngine",
    "EditStats",
    "Computation",
    "Daig",
    "FIX",
    "IllFormedDaigError",
    "JOIN",
    "TRANSFER",
    "WIDEN",
    "MemoTable",
    "Name",
    "fix_name",
    "prejoin_name",
    "prewiden_name",
    "state_name",
    "stmt_name",
    "MAX_UNROLLINGS",
    "QueryEvaluator",
    "QueryStats",
    "SpliceReport",
    "splice",
]
