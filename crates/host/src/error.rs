//! The host executor's error taxonomy.
//!
//! The paper's §4 argument for *distributed* control is that no single
//! component failure should stall the machine. The host executor honours
//! that by reporting anomalies as structured values instead of panicking
//! the scheduler: bad configuration and scheduler-level breakdowns surface
//! as run-level errors from [`crate::run_host_queries`], while a kernel
//! panic fails only the queries that read its cell (a per-query `Err`
//! entry in [`crate::HostRunOutput::results`]) and the survivors keep
//! draining. A
//! helper thread's death fails nothing: its work is requeued, and the
//! caller, processor 0, is always left to serve it.

use std::fmt;
use std::time::Duration;

/// Convenience alias for host-executor results.
pub type HostResult<T> = std::result::Result<T, HostError>;

/// Everything that can go wrong running queries on the host executor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HostError {
    /// [`crate::HostParams`] failed up-front validation (zero workers,
    /// out-of-range fault plan, …).
    InvalidParams {
        /// Human-readable detail.
        detail: String,
    },
    /// The query uses an update operator; the host executor is read-only.
    ReadOnlyExecutor {
        /// Name of the offending operator.
        op: String,
    },
    /// A work unit's kernel panicked on a processor. The panic was
    /// contained: the processor survives and only the queries reading the
    /// unit's cell fail, each with its own error.
    UnitPanicked {
        /// Index of the victim query in the input batch.
        query: usize,
        /// Instruction cell whose unit panicked: its id in the call's
        /// merged graph, where ids are assigned in query order.
        cell: usize,
        /// Operator name of that cell.
        op: String,
        /// The panic payload, stringified.
        payload: String,
    },
    /// The scheduler made no progress for [`crate::HostParams::stall_timeout`]
    /// while units were in flight (a wedged kernel), or its bookkeeping
    /// broke (queries unfinished with nothing in flight and nothing
    /// dispatchable). Replaces the old `expect("scheduler stuck")` abort.
    Stalled {
        /// Units dispatched but unaccounted for when the stall was declared.
        in_flight: usize,
        /// How long the scheduler waited for a completion.
        waited: Duration,
        /// Diagnostic state dump.
        detail: String,
    },
    /// An error from the relational layer (validation, catalog lookup,
    /// page construction).
    Data(df_relalg::Error),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::InvalidParams { detail } => {
                write!(f, "invalid host parameters: {detail}")
            }
            HostError::ReadOnlyExecutor { op } => write!(
                f,
                "df-host executes read-only queries; `{op}` is an update operator"
            ),
            HostError::UnitPanicked {
                query,
                cell,
                op,
                payload,
            } => write!(
                f,
                "work unit of query {query}, cell {cell} (`{op}`) panicked: {payload}"
            ),
            HostError::Stalled {
                in_flight,
                waited,
                detail,
            } => write!(
                f,
                "scheduler stalled after {waited:?} with {in_flight} units in flight: {detail}"
            ),
            HostError::Data(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<df_relalg::Error> for HostError {
    fn from(e: df_relalg::Error) -> HostError {
        HostError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HostError::UnitPanicked {
            query: 3,
            cell: 1,
            op: "join".into(),
            payload: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("query 3") && s.contains("join") && s.contains("boom"));

        let e = HostError::Stalled {
            in_flight: 2,
            waited: Duration::from_secs(1),
            detail: "x".into(),
        };
        assert!(e.to_string().contains("2 units in flight"));
    }

    #[test]
    fn wraps_relalg_errors() {
        let e: HostError = df_relalg::Error::EmptySchema.into();
        assert_eq!(e.to_string(), df_relalg::Error::EmptySchema.to_string());
        assert!(std::error::Error::source(&e).is_some());
    }
}
