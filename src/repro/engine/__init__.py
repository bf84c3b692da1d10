"""Query engine: binding tables, physical operators,
RDFscan/RDFjoin and the executor."""

from . import kernels
from .bindings import (
    BindingTable,
    concat_tables,
    cross_join,
    emit_batches,
)
from .context import ExecutionContext
from .executor import execute_plan
from .expressions import AggregateSpec, BinaryOp, Expression, NumericConst, NumericVar
from .operators import (
    AggregateOp,
    DistinctOp,
    HashJoinOp,
    IndexScanOp,
    LimitOp,
    MaterializedOp,
    NestedLoopIndexJoinOp,
    OrderByOp,
    ProjectOp,
)
from .plan import (
    HeadRange,
    OidRange,
    PatternTerm,
    PhysicalOperator,
    StarPattern,
    StarProperty,
    TriplePatternPlan,
)
from .rdfscan import (
    RDFJoinOp,
    RDFScanOp,
    fk_range_from_zonemap,
    subject_range_for_property_range,
)

__all__ = [
    "AggregateOp",
    "AggregateSpec",
    "BinaryOp",
    "BindingTable",
    "DistinctOp",
    "ExecutionContext",
    "Expression",
    "HashJoinOp",
    "HeadRange",
    "IndexScanOp",
    "LimitOp",
    "MaterializedOp",
    "NestedLoopIndexJoinOp",
    "NumericConst",
    "NumericVar",
    "OidRange",
    "OrderByOp",
    "PatternTerm",
    "PhysicalOperator",
    "ProjectOp",
    "RDFJoinOp",
    "RDFScanOp",
    "StarPattern",
    "StarProperty",
    "TriplePatternPlan",
    "concat_tables",
    "cross_join",
    "emit_batches",
    "execute_plan",
    "fk_range_from_zonemap",
    "kernels",
    "subject_range_for_property_range",
]
