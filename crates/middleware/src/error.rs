//! Middleware errors.

use garlic_core::access::SourceError;
use garlic_core::TopKError;
use garlic_subsys::SubsystemError;
use std::fmt;

/// Errors surfaced by the Garlic middleware layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MiddlewareError {
    /// No registered subsystem serves the attribute.
    UnboundAttribute {
        /// The attribute requested.
        attribute: String,
    },
    /// A subsystem grades a different universe than the catalog.
    UniverseMismatch {
        /// The offending subsystem.
        subsystem: String,
        /// The catalog's universe size.
        expected: usize,
        /// The subsystem's universe size.
        actual: usize,
    },
    /// A subsystem refused or failed a query.
    Subsystem(SubsystemError),
    /// The evaluation algorithm rejected its inputs.
    TopK(TopKError),
    /// The query shape is unsupported by the requested execution mode.
    Unsupported {
        /// Why.
        reason: String,
    },
    /// A source's runtime read path failed after exhausting its retry
    /// budget (`error.quarantined` tells whether the source is now
    /// fail-fast). The query's partial progress was discarded; a retry
    /// against a recovered source re-runs cleanly.
    SourceFailed(SourceError),
    /// The query's cooperative deadline expired between engine batch
    /// rounds. Paged sessions remain resumable: extend the deadline and
    /// ask for the next page again.
    DeadlineExceeded,
    /// The service's bounded admission queue was full — deliberate load
    /// shedding, retry later.
    Overloaded {
        /// The configured in-flight query limit that was hit.
        limit: usize,
    },
    /// A query evaluation panicked and was isolated by the service; the
    /// shared catalog and the other in-flight queries are unaffected.
    Internal {
        /// The captured panic message.
        reason: String,
    },
}

impl fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiddlewareError::UnboundAttribute { attribute } => {
                write!(f, "no subsystem serves attribute {attribute:?}")
            }
            MiddlewareError::UniverseMismatch {
                subsystem,
                expected,
                actual,
            } => write!(
                f,
                "subsystem {subsystem} grades {actual} objects but the catalog has {expected}"
            ),
            MiddlewareError::Subsystem(e) => write!(f, "subsystem error: {e}"),
            MiddlewareError::TopK(e) => write!(f, "evaluation error: {e}"),
            MiddlewareError::Unsupported { reason } => write!(f, "unsupported: {reason}"),
            MiddlewareError::SourceFailed(e) => write!(f, "query failed: {e}"),
            MiddlewareError::DeadlineExceeded => {
                write!(f, "query deadline exceeded (the session remains resumable)")
            }
            MiddlewareError::Overloaded { limit } => {
                write!(f, "service overloaded: {limit} queries already in flight")
            }
            MiddlewareError::Internal { reason } => {
                write!(f, "internal query failure (isolated): {reason}")
            }
        }
    }
}

impl std::error::Error for MiddlewareError {}

impl From<TopKError> for MiddlewareError {
    fn from(e: TopKError) -> Self {
        // Runtime failure classes get their own middleware variants so
        // callers match on them without digging through the TopK layer.
        match e {
            TopKError::SourceFailed(e) => MiddlewareError::SourceFailed(e),
            TopKError::DeadlineExceeded => MiddlewareError::DeadlineExceeded,
            other => MiddlewareError::TopK(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = MiddlewareError::UnboundAttribute {
            attribute: "Tempo".into(),
        };
        assert!(format!("{e}").contains("Tempo"));
        let e = MiddlewareError::UniverseMismatch {
            subsystem: "qbic".into(),
            expected: 10,
            actual: 3,
        };
        let msg = format!("{e}");
        assert!(msg.contains("10") && msg.contains('3'));
    }
}
