//! A fluent builder for partition sequences — ergonomic construction of
//! designs with validation at the end.

use crate::error::Result;
use crate::partition::Partition;
use crate::sequence::PartitionSeq;

/// Builds a [`PartitionSeq`] incrementally; validation (Theorem 1 +
/// disjointness) runs once at [`DesignBuilder::build`].
///
/// ```
/// use ebda_core::builder::DesignBuilder;
/// // West-first, fluently.
/// let design = DesignBuilder::new()
///     .partition(["X-"])?
///     .partition(["X+", "Y+", "Y-"])?
///     .build()?;
/// assert_eq!(design.to_string(), "[X1-] -> [X1+ Y1+ Y1-]");
/// # Ok::<(), ebda_core::EbdaError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DesignBuilder {
    partitions: Vec<Partition>,
}

impl DesignBuilder {
    /// Creates an empty builder.
    pub fn new() -> DesignBuilder {
        DesignBuilder::default()
    }

    /// Appends a partition from channel tokens (the `X1+`/`Ye-`/`Z*`
    /// notation of [`crate::parse_channels`]).
    ///
    /// # Errors
    ///
    /// Returns parse errors for malformed tokens or overlap errors for
    /// non-disjoint channels within the partition.
    pub fn partition<'a, I>(mut self, tokens: I) -> Result<DesignBuilder>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let joined: Vec<&str> = tokens.into_iter().collect();
        self.partitions.push(Partition::parse(&joined.join(" "))?);
        Ok(self)
    }

    /// Finishes the design, validating Theorem 1 and partition
    /// disjointness.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation, as documented on
    /// [`PartitionSeq::validate`].
    pub fn build(self) -> Result<PartitionSeq> {
        PartitionSeq::try_from_partitions(self.partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn builds_the_catalog_classics() {
        let wf = DesignBuilder::new()
            .partition(["X-"])
            .unwrap()
            .partition(["X+", "Y+", "Y-"])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(wf, catalog::p3_west_first());
        let nf = DesignBuilder::new()
            .partition(["X-", "Y-"])
            .unwrap()
            .partition(["X+", "Y+"])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(nf, catalog::p4_negative_first());
    }

    #[test]
    fn wildcards_expand_inside_builder_partitions() {
        let seq = DesignBuilder::new()
            .partition(["X1+", "Y1*"])
            .unwrap()
            .partition(["X1-", "Y2*"])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(seq, catalog::fig7b_dyxy());
    }

    #[test]
    fn build_rejects_invalid_designs() {
        let err = DesignBuilder::new()
            .partition(["X+", "X-", "Y+", "Y-"])
            .unwrap()
            .build();
        assert!(err.is_err(), "two pairs must be rejected at build time");
        let err = DesignBuilder::new()
            .partition(["X+"])
            .unwrap()
            .partition(["X+", "Y+"])
            .unwrap()
            .build();
        assert!(err.is_err(), "overlapping partitions must be rejected");
    }

    #[test]
    fn parse_errors_surface_immediately() {
        assert!(DesignBuilder::new().partition(["Q9+"]).is_err());
    }
}
