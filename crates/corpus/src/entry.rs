//! One labeled verification problem: topology, turn relation (and the
//! partition-sequence design it came from, when there is one), the proven
//! expected verdict, provenance, and a canonical content hash.

use ebda_core::{canonical, Channel, Partition, PartitionSeq, TurnSet};
use ebda_obs::json::{self, Reader};
use ebda_oracle::artifact::{Artifact, ArtifactKind};
use std::borrow::Cow;
use std::fmt;

/// On-disk format version; entries with any other version are rejected.
pub const FORMAT_VERSION: u64 = 1;

/// The ground-truth label of a corpus entry, proven at generation time by
/// the brute-force searcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedVerdict {
    /// The design/relation is deadlock-free on the entry's topology.
    DeadlockFree,
    /// The design/relation deadlocks on the entry's topology.
    Deadlocking,
}

impl ExpectedVerdict {
    /// `true` for [`ExpectedVerdict::DeadlockFree`].
    pub fn is_free(self) -> bool {
        matches!(self, ExpectedVerdict::DeadlockFree)
    }

    /// Parses the on-disk name.
    pub fn parse(s: &str) -> Option<ExpectedVerdict> {
        [ExpectedVerdict::DeadlockFree, ExpectedVerdict::Deadlocking]
            .into_iter()
            .find(|v| v.name() == s)
    }

    /// The stable on-disk name, the label name the campaign reports.
    pub fn name(self) -> &'static str {
        ebda_oracle::campaign::label_name(self.is_free())
    }
}

impl fmt::Display for ExpectedVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One labeled corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Human-readable entry name (`<family>-<index>`, or `witness-…` for
    /// archived counterexamples).
    pub name: String,
    /// Generator-family slug (see [`crate::families`]).
    pub family: String,
    /// Per-dimension radices of the topology.
    pub radix: Vec<usize>,
    /// Per-dimension wrap flags (`true` = torus dimension).
    pub wrap: Vec<bool>,
    /// Per-dimension virtual-channel budget.
    pub vcs: Vec<u8>,
    /// The channel-class universe.
    pub universe: Vec<Channel>,
    /// The allowed turns over `universe`.
    pub turns: TurnSet,
    /// The partition-sequence design the relation came from, if any.
    pub design: Option<PartitionSeq>,
    /// The proven ground-truth verdict.
    pub expected: ExpectedVerdict,
    /// Whether EbDa's constructive check is expected to *accept* the
    /// design (meaningful only when `design` is present). Deadlocking
    /// torus entries can be EbDa-certified: the constructive guarantee is
    /// mesh-only, so acceptance plus a wrap-link deadlock is consistent.
    pub ebda_certified: bool,
    /// How the entry was produced and how its label was proven.
    pub provenance: String,
}

impl CorpusEntry {
    /// The canonical content hash of the (topology, turn-set) pair —
    /// independent of channel/turn enumeration order. This is the same
    /// hash a persistent verdict cache keys on.
    pub fn content_hash(&self) -> u64 {
        canonical::canonical_hash(
            &self.radix,
            &self.wrap,
            &self.vcs,
            &self.universe,
            &self.turns,
        )
    }

    /// The content hash in the fixed-width hex used for file names.
    pub fn hash_hex(&self) -> String {
        canonical::hash_hex(self.content_hash())
    }

    /// The content-addressed file name of this entry (`<hash>.json`).
    pub fn file_name(&self) -> String {
        format!("{}.json", self.hash_hex())
    }

    /// Converts the entry into an oracle [`Artifact`] so the existing
    /// evaluation, shrinking and replay machinery applies unchanged.
    pub fn to_artifact(&self, id: u64) -> Artifact {
        Artifact {
            id,
            kind: if self.design.is_some() {
                ArtifactKind::Partitioning
            } else {
                ArtifactKind::RandomTurns
            },
            radix: self.radix.clone(),
            wrap: self.wrap.clone(),
            vcs: self.vcs.clone(),
            universe: self.universe.clone(),
            turns: self.turns.clone(),
            design: self.design.clone(),
        }
    }

    /// Serializes the entry as the versioned on-disk JSON document. Keys
    /// are written in a fixed order and the rendering has no wall-clock
    /// or environment dependence, so the bytes are stable.
    pub fn to_json(&self) -> String {
        let names = 2 * self.universe.len() + 2 * self.turns.len();
        let mut out = String::with_capacity(512 + self.provenance.len() + 12 * names);
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        fn channels<W: fmt::Write>(out: &mut W, list: &[Channel]) -> fmt::Result {
            json::write_list(out, ", ", list, |out, c| {
                out.write_char('"')?;
                c.write_to(out)?;
                out.write_char('"')
            })
        }
        out.write_str("{\n  \"format\": ")?;
        json::write_u64(out, FORMAT_VERSION)?;
        write!(out, ",\n  \"hash\": \"{:016x}\"", self.content_hash())?;
        out.write_str(",\n  \"name\": ")?;
        json::write_str(out, &self.name)?;
        out.write_str(",\n  \"family\": ")?;
        json::write_str(out, &self.family)?;
        out.write_str(",\n  \"radix\": ")?;
        json::write_list(out, ", ", &self.radix, |out, &r| {
            json::write_u64(out, r as u64)
        })?;
        out.write_str(",\n  \"wrap\": ")?;
        json::write_list(out, ", ", &self.wrap, |out, &w| json::write_bool(out, w))?;
        out.write_str(",\n  \"vcs\": ")?;
        json::write_list(out, ", ", &self.vcs, |out, &v| {
            json::write_u64(out, u64::from(v))
        })?;
        out.write_str(",\n  \"universe\": ")?;
        channels(out, &self.universe)?;
        out.write_str(",\n  \"turns\": ")?;
        json::write_list(out, ", ", self.turns.iter(), |out, t| {
            out.write_char('"')?;
            canonical::write_turn(out, t)?;
            out.write_char('"')
        })?;
        out.write_str(",\n  \"design\": ")?;
        match &self.design {
            Some(seq) => json::write_list(out, ", ", seq.partitions(), |out, p| {
                channels(out, p.channels())
            })?,
            None => out.write_str("null")?,
        }
        out.write_str(",\n  \"expected\": ")?;
        json::write_str(out, self.expected.name())?;
        out.write_str(",\n  \"ebda_certified\": ")?;
        json::write_bool(out, self.ebda_certified)?;
        out.write_str(",\n  \"provenance\": ")?;
        json::write_str(out, &self.provenance)?;
        out.write_str("\n}\n")
    }

    /// Parses the on-disk JSON document, verifying the format version and
    /// that the embedded hash matches the recomputed canonical hash (a
    /// tampered or hand-mangled entry is rejected loudly).
    pub fn from_json(text: &str) -> Result<CorpusEntry, String> {
        CorpusEntry::parse(text).map(|(entry, _)| entry)
    }

    /// [`CorpusEntry::from_json`], also returning the content hash it
    /// verified, so [`crate::store::load_dir`] hashes an entry once.
    pub(crate) fn parse(text: &str) -> Result<(CorpusEntry, u64), String> {
        let (entry, declared) =
            CorpusEntry::read(text).map_err(|e| format!("corpus entry: {e}"))?;
        let actual = entry.content_hash();
        if declared != canonical::hash_hex(actual) {
            return Err(format!(
                "corpus entry {}: declared hash {declared} but content hashes to {}",
                entry.name,
                canonical::hash_hex(actual)
            ));
        }
        Ok((entry, actual))
    }

    /// The fields of the document and the hash it declares, unverified.
    fn read(text: &str) -> Result<(CorpusEntry, Cow<'_, str>), String> {
        fn channel(r: &mut Reader<'_>) -> Result<Channel, String> {
            let s = r.str()?;
            Channel::parse(&s).map_err(|e| format!("channel {s:?}: {e}"))
        }
        fn need<T>(field: Option<T>, key: &str) -> Result<T, String> {
            field.ok_or_else(|| format!("missing \"{key}\""))
        }
        let (mut format, mut hash, mut name, mut family) = (None, None, None, None);
        let (mut radix, mut wrap, mut vcs, mut universe, mut turns) =
            (None, None, None, None, None);
        let (mut design, mut expected, mut certified, mut provenance) = (None, None, None, None);
        let mut r = Reader::new(text);
        r.obj(|r, key| {
            match key {
                "format" => {
                    let version = r.u64()?;
                    if version != FORMAT_VERSION {
                        return Err(format!(
                            "format v{version} not supported (this build reads v{FORMAT_VERSION})"
                        ));
                    }
                    format = Some(version);
                }
                "hash" => hash = Some(r.str()?),
                "name" => name = Some(r.str()?.into_owned()),
                "family" => family = Some(r.str()?.into_owned()),
                "radix" => radix = Some(r.arr(Reader::uint::<usize>)?),
                "wrap" => wrap = Some(r.arr(Reader::bool)?),
                "vcs" => vcs = Some(r.arr(Reader::uint::<u8>)?),
                "universe" => universe = Some(r.arr(channel)?),
                "turns" => {
                    let list = r.arr(|r| canonical::parse_turn(&r.str()?))?;
                    turns = Some(list.into_iter().collect::<TurnSet>());
                }
                "design" => {
                    let partitions = r.nullable(|r| {
                        r.arr(|r| {
                            Partition::from_channels(r.arr(channel)?)
                                .map_err(|e| format!("bad partition: {e}"))
                        })
                    })?;
                    design = partitions.map(PartitionSeq::from_partitions);
                }
                "expected" => {
                    expected = Some(ExpectedVerdict::parse(&r.str()?).ok_or("bad verdict")?)
                }
                "ebda_certified" => certified = Some(r.bool()?),
                "provenance" => provenance = Some(r.str()?.into_owned()),
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        r.end()?;
        need(format, "format")?;
        let entry = CorpusEntry {
            name: need(name, "name")?,
            family: need(family, "family")?,
            radix: need(radix, "radix")?,
            wrap: need(wrap, "wrap")?,
            vcs: need(vcs, "vcs")?,
            universe: need(universe, "universe")?,
            turns: need(turns, "turns")?,
            design,
            expected: need(expected, "expected")?,
            ebda_certified: need(certified, "ebda_certified")?,
            provenance: need(provenance, "provenance")?,
        };
        Ok((entry, need(hash, "hash")?))
    }

    /// A compact one-line description for logs and reports.
    pub(crate) fn summary(&self) -> String {
        let shape: Vec<String> = self
            .radix
            .iter()
            .zip(&self.wrap)
            .map(|(r, w)| format!("{r}{}", if *w { "t" } else { "" }))
            .collect();
        format!(
            "{} [{}] on {} (vcs {:?}, {} classes, {} turns) expecting {}",
            self.name,
            self.family,
            shape.join("x"),
            self.vcs,
            self.universe.len(),
            self.turns.len(),
            self.expected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::catalog;
    use ebda_core::extract_turns;

    fn sample() -> CorpusEntry {
        let seq = catalog::dateline_design(&[4, 4], &[true, false]);
        let universe = seq.channels();
        let vcs = ebda_cdg::dally::infer_vcs(&universe, 2);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        CorpusEntry {
            name: "torus-dateline-00".into(),
            family: "torus-dateline".into(),
            radix: vec![4, 4],
            wrap: vec![true, false],
            vcs,
            universe,
            turns,
            design: Some(seq),
            expected: ExpectedVerdict::DeadlockFree,
            ebda_certified: true,
            provenance: "catalog::dateline_design([4,4],[t,f]); label proven by brute force".into(),
        }
    }

    #[test]
    fn json_round_trips() {
        let entry = sample();
        let text = entry.to_json();
        let back = CorpusEntry::from_json(&text).unwrap();
        assert_eq!(back, entry);
        // And serialization is idempotent byte-for-byte.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn tampered_hash_is_rejected() {
        let entry = sample();
        let text = entry
            .to_json()
            .replace(&entry.hash_hex(), "deadbeefdeadbeef");
        let err = CorpusEntry::from_json(&text).unwrap_err();
        assert!(err.contains("content hashes to"), "{err}");
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let text = sample()
            .to_json()
            .replace("\"format\": 1", "\"format\": 99");
        let err = CorpusEntry::from_json(&text).unwrap_err();
        assert!(err.contains("format v99"), "{err}");
    }

    #[test]
    fn artifact_conversion_preserves_the_problem() {
        let entry = sample();
        let a = entry.to_artifact(3);
        assert_eq!(a.id, 3);
        assert_eq!(a.radix, entry.radix);
        assert_eq!(a.turns, entry.turns);
        assert!(a.design.is_some());
        assert_eq!(a.topology().node_count(), 16);
    }

    #[test]
    fn verdict_names_round_trip() {
        for v in [ExpectedVerdict::DeadlockFree, ExpectedVerdict::Deadlocking] {
            assert_eq!(ExpectedVerdict::parse(v.name()), Some(v));
        }
        assert_eq!(ExpectedVerdict::parse("maybe"), None);
    }
}
