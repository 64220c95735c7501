//! Error type for the systolic operator front-ends.

use std::fmt;

use systolic_fabric::NotQuiescent;
use systolic_relation::RelationError;

/// Errors surfaced by the systolic operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A relational precondition failed (arity, union-compatibility, ...).
    Relation(RelationError),
    /// The array failed to drain within its pulse budget — a schedule bug.
    Fabric(NotQuiescent),
    /// An expected result never appeared on (or an unexpected word appeared
    /// at) an array edge; the message pinpoints the slot.
    ScheduleViolation {
        /// What went wrong and where.
        detail: String,
    },
    /// An element does not fit the configured bit width (bit-level arrays).
    WidthOverflow {
        /// The offending element.
        value: i64,
        /// The configured width in bits.
        width: u32,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relation(e) => write!(f, "{e}"),
            CoreError::Fabric(e) => write!(f, "{e}"),
            CoreError::ScheduleViolation { detail } => {
                write!(f, "schedule violation: {detail}")
            }
            CoreError::WidthOverflow { value, width } => {
                write!(f, "element {value} does not fit in {width} bits")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relation(e) => Some(e),
            CoreError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        CoreError::Relation(e)
    }
}

impl From<NotQuiescent> for CoreError {
    fn from(e: NotQuiescent) -> Self {
        CoreError::Fabric(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: CoreError = RelationError::DuplicateTuple.into();
        assert!(e.to_string().contains("duplicate"));
        let e: CoreError = NotQuiescent { max_pulses: 5 }.into();
        assert!(e.to_string().contains("5 pulses"));
        let e = CoreError::WidthOverflow {
            value: 300,
            width: 8,
        };
        assert!(e.to_string().contains("300"));
        let e = CoreError::ScheduleViolation {
            detail: "row 3".into(),
        };
        assert!(e.to_string().contains("row 3"));
    }

    #[test]
    fn sources_are_preserved() {
        use std::error::Error;
        let e: CoreError = RelationError::DuplicateTuple.into();
        assert!(e.source().is_some());
        let e = CoreError::ScheduleViolation {
            detail: String::new(),
        };
        assert!(e.source().is_none());
    }
}
