//! Error types for the EbDa core crate.

use std::fmt;

/// Errors produced while constructing or validating EbDa objects.
///
/// Every fallible public function in this crate returns [`EbdaError`] inside
/// a [`Result`]. The variants carry enough context to print an actionable
/// message; the [`fmt::Display`] output is a lowercase sentence fragment per
/// Rust API guidelines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EbdaError {
    /// A channel string such as `"X1+"` could not be parsed.
    ParseChannel {
        /// The offending input.
        input: String,
        /// Why parsing failed.
        reason: &'static str,
    },
    /// Two channels inside one partition overlap (occupy a common physical
    /// resource), violating Definition 2 (channels of a partition are
    /// disjoint resources).
    OverlappingChannels {
        /// Printable form of the first channel.
        a: String,
        /// Printable form of the second channel.
        b: String,
    },
    /// A partition covers more than one complete D-pair, violating
    /// Theorem 1.
    TooManyPairs {
        /// Printable names of the dimensions with complete pairs.
        dims: Vec<String>,
    },
    /// Two partitions of one partition sequence share a channel, violating
    /// Definition 6 (partitions must be disjoint).
    PartitionsOverlap {
        /// Index of the first partition.
        first: usize,
        /// Index of the second partition.
        second: usize,
        /// Printable form of a shared channel resource.
        shared: String,
    },
    /// `Set1` fed to Algorithm 1 does not start with a complete D-pair
    /// (two channels of the same dimension in opposite directions).
    MalformedPairSet {
        /// Why the leading pair is malformed.
        reason: &'static str,
    },
    /// A requested construction needs at least one channel per dimension
    /// but a dimension's set ran dry.
    EmptySet {
        /// Printable name of the empty dimension.
        dim: String,
    },
    /// The network dimensionality is outside the supported range.
    BadDimension {
        /// The dimension count that was requested.
        n: usize,
        /// Why it is rejected.
        reason: &'static str,
    },
    /// A class of a design exists nowhere on the topology it is checked
    /// on, so a verdict over it would speak of channels the network lacks.
    Inadmissible {
        /// Which class, and why.
        reason: String,
    },
}

impl fmt::Display for EbdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EbdaError::ParseChannel { input, reason } => {
                write!(f, "cannot parse channel {input:?}: {reason}")
            }
            EbdaError::OverlappingChannels { a, b } => {
                write!(f, "channels {a} and {b} overlap inside one partition")
            }
            EbdaError::TooManyPairs { dims } => {
                write!(
                    f,
                    "partition covers {} complete D-pairs ({}), Theorem 1 allows at most one",
                    dims.len(),
                    dims.join(", ")
                )
            }
            EbdaError::PartitionsOverlap {
                first,
                second,
                shared,
            } => {
                write!(
                    f,
                    "partitions #{first} and #{second} both cover channel {shared}"
                )
            }
            EbdaError::MalformedPairSet { reason } => {
                write!(f, "set arrangement is malformed: {reason}")
            }
            EbdaError::EmptySet { dim } => {
                write!(f, "dimension set {dim} is empty but a channel is required")
            }
            EbdaError::BadDimension { n, reason } => {
                write!(f, "unsupported network dimension {n}: {reason}")
            }
            EbdaError::Inadmissible { reason } => write!(f, "inadmissible design: {reason}"),
        }
    }
}

impl std::error::Error for EbdaError {}

/// Convenience alias used by fallible functions in this crate.
pub type Result<T> = std::result::Result<T, EbdaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors: Vec<EbdaError> = vec![
            EbdaError::ParseChannel {
                input: "Q9".into(),
                reason: "unknown dimension letter",
            },
            EbdaError::OverlappingChannels {
                a: "X1+".into(),
                b: "X1+".into(),
            },
            EbdaError::TooManyPairs {
                dims: vec!["X".into(), "Y".into()],
            },
            EbdaError::PartitionsOverlap {
                first: 0,
                second: 1,
                shared: "Y1-".into(),
            },
            EbdaError::MalformedPairSet {
                reason: "fewer than two channels",
            },
            EbdaError::EmptySet { dim: "Z".into() },
            EbdaError::BadDimension {
                n: 0,
                reason: "must be at least 1",
            },
            EbdaError::Inadmissible {
                reason: "class Z1+ names axis Z".into(),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EbdaError>();
    }
}
