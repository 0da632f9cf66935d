//! API-guideline conformance checks: iteration conventions, conversion
//! traits, Display/FromStr pairs, builder ergonomics and error values —
//! the small contracts that make the crate pleasant to embed.

use ebda::core::builder::DesignBuilder;
use ebda::prelude::*;
use std::str::FromStr;

#[test]
fn partition_iteration_conventions() {
    let p = Partition::parse("X+ X- Y-").unwrap();
    // iter() and (&p).into_iter() agree with channels().
    let a: Vec<_> = p.iter().copied().collect();
    let b: Vec<_> = (&p).into_iter().copied().collect();
    assert_eq!(a, p.channels());
    assert_eq!(b, p.channels());
    // FromIterator round-trip.
    let q: Partition = p.iter().copied().collect();
    assert_eq!(q, p);
}

#[test]
fn fromstr_parses_and_validates() {
    let seq = PartitionSeq::from_str("X- | X+ Y+ Y-").unwrap();
    assert_eq!(seq, catalog::p3_west_first());
    // FromStr validates, unlike parse().
    assert!(PartitionSeq::from_str("X+ X- Y+ Y-").is_err());
    assert!(PartitionSeq::parse("X+ X- Y+ Y-").is_ok());
    // Channel FromStr.
    let c: Channel = "Ye2-".parse().unwrap();
    assert_eq!(c.to_string(), "Ye2-");
}

#[test]
fn builder_and_parser_agree() {
    let built = DesignBuilder::new()
        .partition(["X+", "X-", "Y-"])
        .unwrap()
        .partition(["Y+"])
        .unwrap()
        .build()
        .unwrap();
    assert_eq!(built, PartitionSeq::from_str("X+ X- Y- | Y+").unwrap());
}

#[test]
fn error_values_are_well_behaved() {
    fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<EbdaError>();
    // Error messages are lowercase, concise, no trailing period.
    let err = PartitionSeq::from_str("X+ X- Y+ Y-").unwrap_err();
    let msg = err.to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));
}
