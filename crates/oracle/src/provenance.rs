//! **Verdict provenance**: the full proof evidence behind one verdict,
//! in a canonical JSON document an independent checker can re-validate
//! without re-running any prover.
//!
//! A [`Provenance`] record carries, per verdict path:
//!
//! * **EbDa** — the reconstructed partition sequence (Theorem 1–3
//!   certificate) or the [`CertifyFailure`] that stopped reconstruction;
//! * **Dally** — CDG size plus either the deterministic *channel
//!   ordering* (positive evidence: every dependency ascends in it) or
//!   the offending cycle;
//! * **Duato** — the escape-subnetwork drain argument (acyclic +
//!   connected) or its counterexample;
//! * **brute force** — the greatest-fixed-point summary (pairs, sweeps,
//!   survivors) and, on the negative side, the witness circular wait.
//!
//! Records are keyed by the corpus-style content hash of the
//! (topology, turn-set) pair ([`ebda_core::canonical`]), serialized as
//! a single line of fixed-key-order JSON, and re-validated by
//! [`Provenance::check`] — the checker half of a prover/checker split:
//!
//! * a **witness cycle** is walked hop by hop on a freshly built
//!   topology: every hop must be a real link with a matching channel
//!   class, and every consecutive hold→want step must be allowed by the
//!   turn relation;
//! * a **channel ordering** is checked by independently enumerating all
//!   concrete channels and admissible hold/want pairs and confirming
//!   every pair ascends in the ordering;
//! * an **EbDa certificate** is walked obligation by obligation via
//!   [`ebda_core::certify::check_certificate`] — and only counts as
//!   *proof* on unwrapped (mesh) topologies, the theory's stated scope.
//!
//! None of those walks calls `search`, `verify_turn_set`,
//! `verify_escape` or `certify`, so a prover bug cannot silently
//! validate its own output. What they look things up in — a class bit
//! row per channel, an allow row per class, a dense rank array — is
//! built from the record alone, through `Topology::{node_count,
//! neighbor, coords}` and `TurnSet::allows` and nothing else of the
//! prover crates (`docs/VERIFICATION.md` §7).

use crate::artifact::Artifact;
use crate::brute::BruteChannel;
use crate::verdict::Verdicts;
use ebda_cdg::graph::{Cdg, ConcreteChannel};
use ebda_cdg::topology::Topology;
use ebda_core::certify::{certify, check_certificate, CertifyFailure};
use ebda_core::{canonical, Channel, Dimension, Direction, Partition, PartitionSeq, TurnSet};
use ebda_obs::json::{self, Reader};
use std::fmt;

/// Provenance document format version (the `format` field). Format 2
/// writes a hop as the tuple `[from,to,dim,"+",vc]`; format-1 documents,
/// whose hops are `{"from":..,"to":..,"dim":..,"dir":..,"vc":..}`
/// objects, still read. Each format uses its own hop form only.
pub const PROVENANCE_FORMAT: u64 = 2;

/// One concrete channel of a cycle, ordering or witness — a directed
/// link's virtual channel, in topology-independent coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Source node of the link.
    pub from: usize,
    /// Destination node of the link.
    pub to: usize,
    /// Dimension index the link runs along.
    pub dim: u8,
    /// Direction of travel.
    pub dir: Direction,
    /// Virtual channel (1-based).
    pub vc: u8,
}

impl Hop {
    fn from_concrete(c: ConcreteChannel) -> Hop {
        Hop {
            from: c.from,
            to: c.to,
            dim: c.dim.index() as u8,
            dir: c.dir,
            vc: c.vc,
        }
    }

    fn from_brute(c: &BruteChannel) -> Hop {
        Hop {
            from: c.from,
            to: c.to,
            dim: c.dim.index() as u8,
            dir: c.dir,
            vc: c.vc,
        }
    }

    /// Writes the format-2 tuple `[from,to,dim,"+",vc]`.
    fn write_json<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        out.write_char('[')?;
        json::write_u64(out, self.from as u64)?;
        out.write_char(',')?;
        json::write_u64(out, self.to as u64)?;
        out.write_char(',')?;
        json::write_u64(out, u64::from(self.dim))?;
        out.write_str(match self.dir {
            Direction::Plus => ",\"+\",",
            Direction::Minus => ",\"-\",",
        })?;
        json::write_u64(out, u64::from(self.vc))?;
        out.write_char(']')
    }

    /// Reads a hop in either form, setting bit `f` of `formats` for the
    /// format `f` whose form it has.
    fn read(r: &mut Reader<'_>, formats: &mut u64) -> Result<Hop, String> {
        let (mut from, mut to, mut dim, mut dir, mut vc) = (None, None, None, None, None);
        let mut field = |r: &mut Reader<'_>, key: &str| {
            match key {
                "from" => from = Some(r.uint()?),
                "to" => to = Some(r.uint()?),
                "dim" => dim = Some(r.uint()?),
                "dir" => {
                    dir = Some(match &*r.str()? {
                        "+" => Direction::Plus,
                        "-" => Direction::Minus,
                        other => return Err(format!("must be \"+\" or \"-\", got {other:?}")),
                    })
                }
                "vc" => vc = Some(r.uint()?),
                _ => r.skip_value()?,
            }
            Ok(())
        };
        if r.peek()? == json::Kind::Arr {
            *formats |= 1 << 2;
            let mut at = 0;
            // Elements of type `()`: the list never allocates.
            r.arr(|r| {
                let key = ["from", "to", "dim", "dir", "vc"].get(at);
                at += 1;
                field(r, key.ok_or("a hop is [from,to,dim,dir,vc]")?)
            })?;
        } else {
            *formats |= 1 << 1;
            r.obj(field)?;
        }
        Ok(Hop {
            from: from.ok_or("hop lacks from")?,
            to: to.ok_or("hop lacks to")?,
            dim: dim.ok_or("hop lacks dim")?,
            dir: dir.ok_or("hop lacks dir")?,
            vc: vc.ok_or("hop lacks vc")?,
        })
    }
}

impl std::fmt::Display for Hop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{} ({}→{})",
            Dimension::new(self.dim),
            self.vc,
            self.dir,
            self.from,
            self.to
        )
    }
}

/// EbDa's side of the provenance: a certificate or the reason there is
/// none. A refusal does **not** prove deadlock — EbDa certificates are
/// sufficient, not necessary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EbdaEvidence {
    /// The reconstructed partition sequence, outer order = Theorem 3
    /// order, inner order = the Theorem 2 numbering.
    Certificate {
        /// Channels of each partition, in certificate order.
        partitions: Vec<Vec<Channel>>,
    },
    /// Reconstruction failed with this obstruction.
    Refusal {
        /// `"too-many-pairs"` or `"unorderable-channels"`.
        kind: String,
        /// The failure's display text (offending channels included).
        detail: String,
    },
}

/// Dally's side: CDG size and cycle; the positive channel ordering
/// lives in [`Provenance::ordering`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DallyEvidence {
    /// Concrete channels (CDG nodes).
    pub channels: usize,
    /// Dependency edges.
    pub dependencies: usize,
    /// The offending cycle when the CDG is cyclic.
    pub cycle: Option<Vec<Hop>>,
}

/// Duato's side: the escape-subnetwork drain argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuatoEvidence {
    /// Whether the escape CDG is acyclic.
    pub escape_acyclic: bool,
    /// A cycle in the escape CDG, if any.
    pub escape_cycle: Option<Vec<Hop>>,
    /// Whether the escape subnetwork connects every ordered node pair.
    pub escape_connected: bool,
    /// A witness unreachable (source, destination) pair, if any.
    pub unreachable: Option<(usize, usize)>,
}

/// The brute GFP's side: iteration summary and witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BruteEvidence {
    /// Concrete channels enumerated.
    pub channels: usize,
    /// Admissible hold/want pairs before pruning.
    pub pairs: usize,
    /// Pairs surviving in the greatest fixed point.
    pub surviving: usize,
    /// Pruning sweeps to convergence.
    pub sweeps: usize,
    /// The witness circular wait when the fixed point is nonempty.
    pub witness: Option<Vec<Hop>>,
}

/// The full proof evidence behind one verdict. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Per-dimension radix of the topology.
    pub radix: Vec<usize>,
    /// Per-dimension wrap-around flags.
    pub wrap: Vec<bool>,
    /// Virtual channels per dimension.
    pub vcs: Vec<u8>,
    /// The channel-class universe.
    pub universe: Vec<Channel>,
    /// The turn relation under verdict.
    pub turns: TurnSet,
    /// The brute-force verdict this record justifies — honest under
    /// every mutation but the one that sabotages the brute path itself.
    pub deadlock_free: bool,
    /// EbDa certificate or refusal.
    pub ebda: EbdaEvidence,
    /// Dally's channel ordering — the positive evidence every verdict
    /// needs on wrapped topologies. `None` on negative verdicts.
    pub ordering: Option<Vec<Hop>>,
    /// Dally CDG summary and cycle.
    pub dally: DallyEvidence,
    /// Duato escape argument.
    pub duato: DuatoEvidence,
    /// Brute GFP summary and witness.
    pub brute: BruteEvidence,
}

/// What [`Provenance::check`] validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// The verdict the evidence supports.
    pub deadlock_free: bool,
    /// The independent arguments that validated: any of
    /// `"witness-cycle"`, `"channel-ordering"`, `"ebda-certificate"`.
    pub methods: Vec<&'static str>,
    /// Total obligations walked across all methods.
    pub obligations: usize,
}

/// The indices of the set bits of a bit row, ascending.
fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        (0..64)
            .filter(move |bit| word >> bit & 1 == 1)
            .map(move |bit| w * 64 + bit)
    })
}

impl Provenance {
    /// Builds the provenance for an artifact's verdicts.
    ///
    /// The EbDa certificate and the channel ordering are re-derived
    /// honestly here, whatever mutation [`crate::verdict::evaluate`] ran
    /// under; the verdict and the Dally/Duato/brute summaries are copied
    /// from the verdicts. Builds the artifact's CDG for the ordering; a
    /// caller holding the [`crate::verdict::Evaluation`] asks it instead
    /// ([`crate::verdict::Evaluation::provenance`]) and builds nothing.
    pub fn from_artifact(artifact: &Artifact, verdicts: &Verdicts) -> Provenance {
        Provenance::build(artifact, verdicts, &artifact.cdg())
    }

    /// [`Provenance::from_artifact`] reading the ordering certificate off
    /// `cdg`, the artifact's already-built [`Artifact::cdg`].
    pub(crate) fn build(artifact: &Artifact, verdicts: &Verdicts, cdg: &Cdg) -> Provenance {
        let (universe, turns) = (&artifact.universe, &artifact.turns);
        let deadlock_free = verdicts.brute.is_deadlock_free();
        let ebda = match certify(universe, turns) {
            Ok(seq) => EbdaEvidence::Certificate {
                partitions: seq
                    .partitions()
                    .iter()
                    .map(|p| p.channels().to_vec())
                    .collect(),
            },
            Err(e) => EbdaEvidence::Refusal {
                kind: match e {
                    CertifyFailure::TooManyPairs { .. } => "too-many-pairs".to_string(),
                    CertifyFailure::UnorderableChannels { .. } => {
                        "unorderable-channels".to_string()
                    }
                },
                detail: e.to_string(),
            },
        };
        let ordering = if deadlock_free {
            cdg.topological_order()
                .map(|o| o.into_iter().map(Hop::from_concrete).collect())
        } else {
            None
        };
        let to_hops = |cycle: &Option<Vec<ConcreteChannel>>| {
            cycle
                .as_ref()
                .map(|c| c.iter().copied().map(Hop::from_concrete).collect())
        };
        Provenance {
            radix: artifact.radix.clone(),
            wrap: artifact.wrap.clone(),
            vcs: artifact.vcs.clone(),
            universe: universe.clone(),
            turns: turns.clone(),
            deadlock_free,
            ebda,
            ordering,
            dally: DallyEvidence {
                channels: verdicts.dally.channels,
                dependencies: verdicts.dally.dependencies,
                cycle: to_hops(&verdicts.dally.cycle),
            },
            duato: DuatoEvidence {
                escape_acyclic: verdicts.duato.escape_acyclic,
                escape_cycle: to_hops(&verdicts.duato.escape_cycle),
                escape_connected: verdicts.duato.escape_connected,
                unreachable: verdicts.duato.unreachable,
            },
            brute: BruteEvidence {
                channels: verdicts.brute.channels,
                pairs: verdicts.brute.pairs,
                surviving: verdicts.brute.surviving,
                sweeps: verdicts.brute.sweeps,
                witness: verdicts
                    .brute
                    .witness
                    .as_ref()
                    .map(|w| w.iter().map(Hop::from_brute).collect()),
            },
        }
    }

    /// The canonical content hash of the record's (topology, turn-set)
    /// pair — the corpus keying scheme.
    pub(crate) fn content_hash(&self) -> u64 {
        canonical::canonical_hash(
            &self.radix,
            &self.wrap,
            &self.vcs,
            &self.universe,
            &self.turns,
        )
    }

    /// `Provenance::content_hash` in 16-digit lowercase hex.
    pub fn hash_hex(&self) -> String {
        canonical::hash_hex(self.content_hash())
    }

    /// The verdict as its ledger spelling.
    pub fn verdict_str(&self) -> &'static str {
        if self.deadlock_free {
            "deadlock-free"
        } else {
            "deadlocking"
        }
    }

    /// The run-ledger record of this verdict: who produced it (`source`,
    /// `name`, `git_rev`, `seed`) is the caller's, everything else is
    /// read off the evidence. `coverage` is the artifact's own map, when
    /// the run tracked coverage; `index` is stamped by
    /// [`ebda_obs::ledger::append`].
    pub fn ledger_record(
        &self,
        source: &str,
        name: String,
        git_rev: String,
        seed: u64,
        coverage: Option<&ebda_obs::CoverageMap>,
    ) -> ebda_obs::LedgerRecord {
        // Hashed once: the record's `hash` and the document's are the same.
        let hash = self.content_hash();
        ebda_obs::LedgerRecord {
            index: 0,
            source: source.into(),
            name,
            git_rev,
            seed,
            verdict: self.verdict_str().into(),
            evidence: if self.deadlock_free {
                "certificate".into()
            } else {
                "witness".into()
            },
            hash: canonical::hash_hex(hash),
            gfp_sweeps: self.brute.sweeps as u64,
            wait_pairs: self.brute.pairs as u64,
            coverage: coverage.map(|c| c.digest()).unwrap_or_default(),
            provenance: self.json_with_hash(hash),
        }
    }

    /// Serializes the record as one line of fixed-key-order JSON (no
    /// trailing newline). Byte-deterministic: golden tests pin this.
    pub fn to_json(&self) -> String {
        self.json_with_hash(self.content_hash())
    }

    fn json_with_hash(&self, hash: u64) -> String {
        // A hop is about 16 bytes, a class name about 8.
        let len = |hops: &Option<Vec<Hop>>| hops.as_ref().map_or(0, Vec::len);
        let hops = len(&self.ordering)
            + len(&self.dally.cycle)
            + len(&self.duato.escape_cycle)
            + len(&self.brute.witness);
        let names = 2 * self.universe.len() + 2 * self.turns.len();
        let mut out = String::with_capacity(512 + 18 * hops + 12 * names);
        self.write_json(hash, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json<W: fmt::Write>(&self, hash: u64, out: &mut W) -> fmt::Result {
        // `key` is everything up to the value: `,"pairs":`.
        fn count<W: fmt::Write>(out: &mut W, key: &str, n: usize) -> fmt::Result {
            out.write_str(key)?;
            json::write_u64(out, n as u64)
        }
        fn flag<W: fmt::Write>(out: &mut W, key: &str, b: bool) -> fmt::Result {
            out.write_str(key)?;
            json::write_bool(out, b)
        }
        fn hops<W: fmt::Write>(out: &mut W, key: &str, list: &Option<Vec<Hop>>) -> fmt::Result {
            out.write_str(key)?;
            match list {
                None => out.write_str("null"),
                Some(list) => json::write_list(out, ",", list, |out, h| h.write_json(out)),
            }
        }
        fn channels<W: fmt::Write>(out: &mut W, list: &[Channel]) -> fmt::Result {
            json::write_list(out, ",", list, |out, c| {
                out.write_char('"')?;
                c.write_to(out)?;
                out.write_char('"')
            })
        }
        count(out, "{\"format\":", PROVENANCE_FORMAT as usize)?;
        write!(out, ",\"hash\":\"{hash:016x}\",\"verdict\":")?;
        json::write_str(out, self.verdict_str())?;
        out.write_str(",\"radix\":")?;
        json::write_list(out, ",", &self.radix, |out, &r| count(out, "", r))?;
        out.write_str(",\"wrap\":")?;
        json::write_list(out, ",", &self.wrap, |out, &w| json::write_bool(out, w))?;
        out.write_str(",\"vcs\":")?;
        json::write_list(out, ",", &self.vcs, |out, &v| count(out, "", v.into()))?;
        out.write_str(",\"universe\":")?;
        channels(out, &self.universe)?;
        out.write_str(",\"turns\":")?;
        json::write_list(out, ",", self.turns.iter(), |out, t| {
            out.write_char('"')?;
            canonical::write_turn(out, t)?;
            out.write_char('"')
        })?;
        match &self.ebda {
            EbdaEvidence::Certificate { partitions } => {
                out.write_str(",\"ebda\":{\"certificate\":")?;
                json::write_list(out, ",", partitions, |out, p| channels(out, p))?;
            }
            EbdaEvidence::Refusal { kind, detail } => {
                out.write_str(",\"ebda\":{\"refusal\":{\"kind\":")?;
                json::write_str(out, kind)?;
                out.write_str(",\"detail\":")?;
                json::write_str(out, detail)?;
                out.write_char('}')?;
            }
        }
        hops(out, "},\"ordering\":", &self.ordering)?;
        count(out, ",\"dally\":{\"channels\":", self.dally.channels)?;
        count(out, ",\"dependencies\":", self.dally.dependencies)?;
        hops(out, ",\"cycle\":", &self.dally.cycle)?;
        flag(
            out,
            "},\"duato\":{\"escape_acyclic\":",
            self.duato.escape_acyclic,
        )?;
        hops(out, ",\"escape_cycle\":", &self.duato.escape_cycle)?;
        flag(out, ",\"escape_connected\":", self.duato.escape_connected)?;
        out.write_str(",\"unreachable\":")?;
        match self.duato.unreachable {
            None => out.write_str("null")?,
            Some((a, b)) => json::write_list(out, ",", [a, b], |out, n| count(out, "", n))?,
        }
        count(out, "},\"brute\":{\"channels\":", self.brute.channels)?;
        count(out, ",\"pairs\":", self.brute.pairs)?;
        count(out, ",\"surviving\":", self.brute.surviving)?;
        count(out, ",\"sweeps\":", self.brute.sweeps)?;
        hops(out, ",\"witness\":", &self.brute.witness)?;
        out.write_str("}}")
    }

    /// Parses a provenance document of either format, re-deriving the
    /// content hash and rejecting a mismatch with the declared one.
    /// Fields are taken straight off the reader: any key order, unknown
    /// keys skipped, every integer read exactly and required to fit its
    /// field, every hop in the form of the declared format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field, an unsupported
    /// format version, or the hash mismatch.
    pub fn from_json(text: &str) -> Result<Provenance, String> {
        fn channel(r: &mut Reader<'_>) -> Result<Channel, String> {
            let s = r.str()?;
            Channel::parse(&s).map_err(|e| format!("channel {s}: {e}"))
        }
        fn hops(r: &mut Reader<'_>, formats: &mut u64) -> Result<Option<Vec<Hop>>, String> {
            r.nullable(|r| r.arr(|r| Hop::read(r, formats)))
        }
        /// `Some(field)`, or the complaint that `key` is missing.
        fn need<T>(field: Option<T>, key: &str) -> Result<T, String> {
            field.ok_or_else(|| format!("missing field {key}"))
        }

        let (mut format, mut hash, mut deadlock_free) = (None, None, None);
        // Bit `f`: a hop in the form of format `f`.
        let mut hop_formats = 0u64;
        let (mut radix, mut wrap, mut vcs, mut universe, mut turns) =
            (None, None, None, None, None);
        let (mut ebda, mut ordering, mut dally, mut duato, mut brute) =
            (None, None, None, None, None);
        let mut r = Reader::new(text);
        r.obj(|r, key| {
            match key {
                "format" => {
                    let version = r.u64()?;
                    if !(1..=PROVENANCE_FORMAT).contains(&version) {
                        return Err(format!(
                            "unsupported provenance format {version} (this build reads 1 to {PROVENANCE_FORMAT})"
                        ));
                    }
                    format = Some(version);
                }
                "hash" => hash = Some(r.str()?),
                "verdict" => {
                    deadlock_free = Some(match &*r.str()? {
                        "deadlock-free" => true,
                        "deadlocking" => false,
                        other => return Err(format!("unknown verdict {other:?}")),
                    })
                }
                "radix" => radix = Some(r.arr(Reader::uint::<usize>)?),
                "wrap" => wrap = Some(r.arr(Reader::bool)?),
                "vcs" => vcs = Some(r.arr(Reader::uint::<u8>)?),
                "universe" => universe = Some(r.arr(channel)?),
                "turns" => {
                    let list = r.arr(|r| canonical::parse_turn(&r.str()?))?;
                    turns = Some(list.into_iter().collect::<TurnSet>());
                }
                "ebda" => {
                    let (mut certificate, mut refusal) = (None, None);
                    r.obj(|r, key| {
                        match key {
                            "certificate" => certificate = Some(r.arr(|r| r.arr(channel))?),
                            "refusal" => {
                                let (mut kind, mut detail) = (None, None);
                                r.obj(|r, key| {
                                    match key {
                                        "kind" => kind = Some(r.str()?.into_owned()),
                                        "detail" => detail = Some(r.str()?.into_owned()),
                                        _ => r.skip_value()?,
                                    }
                                    Ok(())
                                })?;
                                refusal = Some(EbdaEvidence::Refusal {
                                    kind: need(kind, "kind")?,
                                    detail: need(detail, "detail")?,
                                });
                            }
                            _ => r.skip_value()?,
                        }
                        Ok(())
                    })?;
                    ebda = Some(
                        certificate
                            .map(|partitions| EbdaEvidence::Certificate { partitions })
                            .or(refusal)
                            .ok_or("must carry a certificate or a refusal")?,
                    );
                }
                "ordering" => ordering = Some(hops(r, &mut hop_formats)?),
                "dally" => {
                    let (mut channels, mut dependencies, mut cycle) = (None, None, None);
                    r.obj(|r, key| {
                        match key {
                            "channels" => channels = Some(r.uint()?),
                            "dependencies" => dependencies = Some(r.uint()?),
                            "cycle" => cycle = Some(hops(r, &mut hop_formats)?),
                            _ => r.skip_value()?,
                        }
                        Ok(())
                    })?;
                    dally = Some(DallyEvidence {
                        channels: need(channels, "channels")?,
                        dependencies: need(dependencies, "dependencies")?,
                        cycle: need(cycle, "cycle")?,
                    });
                }
                "duato" => {
                    let (mut acyclic, mut cycle, mut connected, mut unreachable) =
                        (None, None, None, None);
                    r.obj(|r, key| {
                        match key {
                            "escape_acyclic" => acyclic = Some(r.bool()?),
                            "escape_cycle" => cycle = Some(hops(r, &mut hop_formats)?),
                            "escape_connected" => connected = Some(r.bool()?),
                            "unreachable" => {
                                let pair = r.nullable(|r| r.arr(Reader::uint::<usize>))?;
                                unreachable = Some(match pair.as_deref() {
                                    None => None,
                                    Some(&[from, to]) => Some((from, to)),
                                    Some(_) => return Err("must be null or a [from,to] pair".into()),
                                });
                            }
                            _ => r.skip_value()?,
                        }
                        Ok(())
                    })?;
                    duato = Some(DuatoEvidence {
                        escape_acyclic: need(acyclic, "escape_acyclic")?,
                        escape_cycle: need(cycle, "escape_cycle")?,
                        escape_connected: need(connected, "escape_connected")?,
                        unreachable: need(unreachable, "unreachable")?,
                    });
                }
                "brute" => {
                    let (mut channels, mut pairs, mut surviving, mut sweeps, mut witness) =
                        (None, None, None, None, None);
                    r.obj(|r, key| {
                        match key {
                            "channels" => channels = Some(r.uint()?),
                            "pairs" => pairs = Some(r.uint()?),
                            "surviving" => surviving = Some(r.uint()?),
                            "sweeps" => sweeps = Some(r.uint()?),
                            "witness" => witness = Some(hops(r, &mut hop_formats)?),
                            _ => r.skip_value()?,
                        }
                        Ok(())
                    })?;
                    brute = Some(BruteEvidence {
                        channels: need(channels, "channels")?,
                        pairs: need(pairs, "pairs")?,
                        surviving: need(surviving, "surviving")?,
                        sweeps: need(sweeps, "sweeps")?,
                        witness: need(witness, "witness")?,
                    });
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        r.end()?;
        let version = need(format, "format")?;
        let stray = hop_formats & !(1 << version);
        if stray != 0 {
            return Err(format!(
                "a format-{version} document with a format-{} hop",
                stray.trailing_zeros()
            ));
        }
        let prov = Provenance {
            radix: need(radix, "radix")?,
            wrap: need(wrap, "wrap")?,
            vcs: need(vcs, "vcs")?,
            universe: need(universe, "universe")?,
            turns: need(turns, "turns")?,
            deadlock_free: need(deadlock_free, "verdict")?,
            ebda: need(ebda, "ebda")?,
            ordering: need(ordering, "ordering")?,
            dally: need(dally, "dally")?,
            duato: need(duato, "duato")?,
            brute: need(brute, "brute")?,
        };
        let declared = need(hash, "hash")?;
        let actual = prov.hash_hex();
        if declared != actual {
            return Err(format!(
                "declared hash {declared} but content hashes to {actual}"
            ));
        }
        Ok(prov)
    }

    /// Independently re-validates the record's certificate or witness —
    /// no prover is re-run (see the module docs for what each walk
    /// does).
    ///
    /// # Errors
    ///
    /// Returns the first failed obligation, or "no checkable evidence"
    /// when a record carries nothing that proves its verdict.
    pub fn check(&self) -> Result<CheckReport, String> {
        let dims = self.radix.len();
        if self.wrap.len() != dims || self.vcs.len() != dims || dims == 0 {
            return Err(format!(
                "inconsistent shape: {} radices, {} wrap flags, {} vc budgets",
                dims,
                self.wrap.len(),
                self.vcs.len()
            ));
        }
        if self.radix.contains(&0) {
            return Err("inconsistent shape: a dimension of radix 0".to_string());
        }
        // `Topology::node_count` is the unchecked product, from here on.
        let nodes = self.radix.iter().try_fold(1usize, |n, &r| n.checked_mul(r));
        if nodes.is_none() {
            return Err(self.overflows("node"));
        }
        let topo = Topology::mesh(&self.radix).with_wrap(&self.wrap);
        let mut obligations = 0usize;
        let mut methods = Vec::new();

        // Verdict self-consistency before walking any evidence.
        if self.deadlock_free != self.brute.witness.is_none()
            || self.deadlock_free != (self.brute.surviving == 0)
        {
            return Err("verdict disagrees with the brute summary it embeds".to_string());
        }
        obligations += 1;

        if self.deadlock_free {
            if let Some(ordering) = &self.ordering {
                obligations += self.check_ordering(&topo, ordering)?;
                methods.push("channel-ordering");
            }
            if let EbdaEvidence::Certificate { partitions } = &self.ebda {
                obligations += self.check_ebda_certificate(partitions)?;
                // The theorems' sufficiency argument assumes monotone
                // progress within a class — void on wrap-around rings,
                // so a certificate only *proves* the verdict on meshes.
                if !self.wrap.iter().any(|&w| w) {
                    methods.push("ebda-certificate");
                }
            }
            if methods.is_empty() {
                return Err(
                    "positive verdict carries no independently checkable evidence \
                     (no channel ordering, and no mesh-scope EbDa certificate)"
                        .to_string(),
                );
            }
        } else {
            let witness = self
                .brute
                .witness
                .as_ref()
                .or(self.dally.cycle.as_ref())
                .ok_or("negative verdict carries no witness cycle")?;
            obligations += self.check_cycle(&topo, witness)?;
            methods.push("witness-cycle");
        }
        Ok(CheckReport {
            deadlock_free: self.deadlock_free,
            methods,
            obligations,
        })
    }

    /// The refusal of a declared shape too large to count.
    fn overflows(&self, what: &str) -> String {
        let radix = &self.radix;
        format!("inconsistent shape: radix {radix:?} overflows the {what} count")
    }

    /// Words in a bit row over the universe's classes.
    fn class_words(&self) -> usize {
        self.universe.len().div_ceil(64)
    }

    /// Sets in `row` the bit of every universe class that the `(dim,
    /// dir, vc)` channel leaving the node at `coords` belongs to.
    fn class_row(&self, coords: &[i64], dim: usize, dir: Direction, vc: u8, row: &mut [u64]) {
        for (i, class) in self.universe.iter().enumerate() {
            if class.dim.index() == dim
                && class.dir == dir
                && class.vc == vc
                && class.class.contains(coords)
            {
                row[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Is some class of `from` allowed to continue onto some class of
    /// `to`? Both are class rows of adjacent channels.
    fn admits(&self, from: &[u64], to: &[u64]) -> bool {
        set_bits(from)
            .any(|a| set_bits(to).any(|b| self.turns.allows(self.universe[a], self.universe[b])))
    }

    /// Confirms a hop is a real link of the topology with a live VC and
    /// at least one matching universe class, which `row` receives.
    fn check_hop(&self, topo: &Topology, hop: Hop, row: &mut [u64]) -> Result<(), String> {
        if hop.dim as usize >= self.radix.len() {
            return Err(format!(
                "hop {hop} names dimension {} of {}",
                hop.dim,
                self.radix.len()
            ));
        }
        if hop.vc == 0 || hop.vc > self.vcs[hop.dim as usize] {
            return Err(format!(
                "hop {hop} uses vc {} of a {}-vc dimension",
                hop.vc, self.vcs[hop.dim as usize]
            ));
        }
        let far = (hop.from < topo.node_count())
            .then(|| topo.neighbor(hop.from, Dimension::new(hop.dim), hop.dir));
        if far != Some(Some(hop.to)) {
            return Err(format!("hop {hop} is not a link of the topology"));
        }
        self.class_row(
            &topo.coords(hop.from),
            hop.dim as usize,
            hop.dir,
            hop.vc,
            row,
        );
        if row.iter().all(|&w| w == 0) {
            return Err(format!(
                "hop {hop} matches no channel class of the universe"
            ));
        }
        Ok(())
    }

    /// Walks a witness cycle: every hop real, every consecutive
    /// hold→want step allowed, the chain closed.
    fn check_cycle(&self, topo: &Topology, cycle: &[Hop]) -> Result<usize, String> {
        if cycle.len() < 2 {
            return Err(format!(
                "witness cycle of length {} cannot close",
                cycle.len()
            ));
        }
        // Two class rows however long the cycle: the held hop's and the
        // wanted one's.
        let words = self.class_words();
        let mut rows = vec![0u64; 2 * words];
        let (mut held, mut wanted) = rows.split_at_mut(words);
        for &hop in cycle {
            held.fill(0);
            self.check_hop(topo, hop, held)?;
        }
        held.fill(0);
        self.check_hop(topo, cycle[0], held)?;
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle[(i + 1) % cycle.len()];
            wanted.fill(0);
            self.check_hop(topo, b, wanted)?;
            if a.to != b.from || !self.admits(held, wanted) {
                return Err(format!(
                    "witness step {a} → {b} is not an admissible hold/want pair"
                ));
            }
            std::mem::swap(&mut held, &mut wanted);
        }
        Ok(2 * cycle.len())
    }

    /// How many concrete channels the declared shape has, `None` when
    /// the count overflows: per dimension, `vcs` on every directed link
    /// of every line of nodes along it — `radix` links each way on a
    /// ring, one fewer on a mesh line, none at radix 1.
    fn channel_count(&self, nodes: usize) -> Option<usize> {
        let mut channels = 0usize;
        for ((&radix, &wrap), &vcs) in self.radix.iter().zip(&self.wrap).zip(&self.vcs) {
            let per_line = if wrap && radix > 1 { radix } else { radix - 1 };
            let links = (nodes / radix).checked_mul(per_line)?.checked_mul(2)?;
            channels = channels.checked_add(links.checked_mul(usize::from(vcs))?)?;
        }
        Some(channels)
    }

    /// Validates a channel ordering: it must cover every concrete
    /// channel exactly once, and every independently enumerated
    /// admissible hold/want pair must ascend in it.
    ///
    /// Everything is looked up in tables built here from the record
    /// alone — no prover's graph. A concrete channel is a *slot*: node,
    /// dimension, direction (`+` first) and VC, numbered in that order,
    /// which is also the order the channels are enumerated in. Per slot:
    /// its rank in the ordering and the bit row of universe classes it
    /// belongs to. Per class: the bit row of classes it may turn onto.
    fn check_ordering(&self, topo: &Topology, ordering: &[Hop]) -> Result<usize, String> {
        const UNRANKED: usize = usize::MAX;
        let nodes = topo.node_count();
        // Refuse before sizing any table by the declared shape: the
        // tables below hold a row per node, and a shape with any channel
        // at all has at least one per node.
        let expected = self.channel_count(nodes);
        let expected = expected.ok_or_else(|| self.overflows("channel"))?;
        if ordering.len() != expected {
            // A repeated entry is named first, as the table walk would.
            let mut seen = std::collections::BTreeSet::new();
            let key = |h: &Hop| (h.from, h.to, h.dim, h.dir, h.vc);
            if let Some(h) = ordering.iter().find(|h| !seen.insert(key(h))) {
                return Err(format!("ordering lists {h} twice"));
            }
            return Err(format!(
                "ordering covers {} channels, topology has {}",
                ordering.len(),
                expected
            ));
        }
        if expected == 0 {
            return Ok(0);
        }
        let dims = self.radix.len();
        let vcs = usize::from(self.vcs.iter().copied().max().unwrap_or(0));
        let words = self.class_words();
        // Independent enumeration: every VC of every directed link.
        // `far[port]` is the node a link leads to; a slot exists when
        // its port does and its VC is within the dimension's budget.
        let port = |node: usize, dim: usize, dir: Direction| {
            (node * dims + dim) * 2 + usize::from(dir == Direction::Minus)
        };
        let mut far: Vec<Option<usize>> = vec![None; nodes * dims * 2];
        let mut classes = vec![0u64; far.len() * vcs * words];
        for node in 0..nodes {
            let coords = topo.coords(node);
            for dim in 0..dims {
                for dir in [Direction::Plus, Direction::Minus] {
                    let port = port(node, dim, dir);
                    far[port] = topo.neighbor(node, Dimension::new(dim as u8), dir);
                    if far[port].is_none() {
                        continue;
                    }
                    for vc in 1..=self.vcs[dim] {
                        let slot = port * vcs + usize::from(vc) - 1;
                        let row = &mut classes[slot * words..][..words];
                        self.class_row(&coords, dim, dir, vc, row);
                    }
                }
            }
        }
        let hop_at = |slot: usize| {
            let (port, dim) = (slot / vcs, slot / vcs / 2 % dims);
            Hop {
                from: port / 2 / dims,
                to: far[port].expect("only existing slots are named"),
                dim: dim as u8,
                dir: [Direction::Plus, Direction::Minus][port % 2],
                vc: (slot % vcs + 1) as u8,
            }
        };
        let exists = |slot: usize| {
            far[slot / vcs].is_some() && slot % vcs < usize::from(self.vcs[slot / vcs / 2 % dims])
        };
        let slot_of = |h: Hop| {
            let dim = h.dim as usize;
            let real = h.from < nodes
                && dim < dims
                && (1..=self.vcs[dim]).contains(&h.vc)
                && far[port(h.from, dim, h.dir)] == Some(h.to);
            real.then(|| port(h.from, dim, h.dir) * vcs + usize::from(h.vc) - 1)
        };

        // The rank of every listed channel. Entries that are no channel
        // of this topology can still repeat, so they are remembered too.
        let mut rank = vec![UNRANKED; far.len() * vcs];
        let mut strays = std::collections::BTreeSet::new();
        for (i, &h) in ordering.iter().enumerate() {
            let fresh = match slot_of(h) {
                Some(slot) => std::mem::replace(&mut rank[slot], i) == UNRANKED,
                None => strays.insert((h.from, h.to, h.dim, h.dir, h.vc)),
            };
            if !fresh {
                return Err(format!("ordering lists {h} twice"));
            }
        }
        let mut obligations = 0usize;
        for slot in (0..rank.len()).filter(|&slot| exists(slot)) {
            obligations += 1;
            if rank[slot] == UNRANKED {
                return Err(format!("ordering misses concrete channel {}", hop_at(slot)));
            }
        }

        // The pair sweep. `allow` row `a`: the classes class `a` may
        // continue onto; `wanted`: the union of those rows over the
        // classes of one held channel.
        let mut allow = vec![0u64; self.universe.len() * words];
        for (a, &from) in self.universe.iter().enumerate() {
            for (b, &to) in self.universe.iter().enumerate() {
                if self.turns.allows(from, to) {
                    allow[a * words + b / 64] |= 1 << (b % 64);
                }
            }
        }
        let mut wanted = vec![0u64; words];
        let per_node = dims * 2 * vcs;
        for a in (0..rank.len()).filter(|&slot| exists(slot)) {
            wanted.fill(0);
            for class in set_bits(&classes[a * words..][..words]) {
                for (w, allowed) in wanted.iter_mut().zip(&allow[class * words..][..words]) {
                    *w |= allowed;
                }
            }
            // A slot that does not exist has an empty class row and
            // drops out here like a channel no class covers.
            let next = far[a / vcs].expect("slot exists");
            for b in next * per_node..(next + 1) * per_node {
                let row = &classes[b * words..][..words];
                if row.iter().zip(&wanted).any(|(r, w)| r & w != 0) {
                    obligations += 1;
                    if rank[a] >= rank[b] {
                        return Err(format!(
                            "dependency {} → {} descends in the channel ordering",
                            hop_at(a),
                            hop_at(b)
                        ));
                    }
                }
            }
        }
        Ok(obligations)
    }

    /// Rebuilds the partition sequence and walks the Theorem 1–3
    /// obligations via [`ebda_core::certify::check_certificate`].
    fn check_ebda_certificate(&self, partitions: &[Vec<Channel>]) -> Result<usize, String> {
        let parts = partitions
            .iter()
            .map(|p| Partition::from_channels(p.iter().copied()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let seq = PartitionSeq::from_partitions(parts);
        check_certificate(&seq, &self.universe, &self.turns)
    }

    /// The human-readable proof narrative `ebda explain` renders.
    /// Deterministic; a golden test pins one.
    pub fn narrative(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let shape: Vec<String> = self.radix.iter().map(|r| r.to_string()).collect();
        let kind = if !self.wrap.iter().any(|&w| w) {
            "mesh".to_string()
        } else if self.wrap.iter().all(|&w| w) {
            "torus".to_string()
        } else {
            let dims: Vec<String> = self
                .wrap
                .iter()
                .enumerate()
                .filter(|(_, &w)| w)
                .map(|(i, _)| Dimension::new(i as u8).to_string())
                .collect();
            format!("partial torus (wrap {})", dims.join(","))
        };
        let _ = writeln!(
            out,
            "problem {}: {} {kind}, vcs {:?}, {} classes, {} turns",
            self.hash_hex(),
            shape.join("x"),
            self.vcs,
            self.universe.len(),
            self.turns.len()
        );
        let _ = writeln!(out, "verdict: {}", self.verdict_str());
        out.push('\n');

        match &self.ebda {
            EbdaEvidence::Certificate { partitions } => {
                let _ = writeln!(
                    out,
                    "EbDa: certificate with {} partitions:",
                    partitions.len()
                );
                for (i, p) in partitions.iter().enumerate() {
                    let part = Partition::from_channels(p.iter().copied());
                    let (rendered, pairs) = match part {
                        Ok(part) => {
                            let dims = part.complete_pair_dims();
                            let pairs = if dims.is_empty() {
                                "no complete pair".to_string()
                            } else {
                                format!(
                                    "complete pair: {}",
                                    dims.iter()
                                        .map(ToString::to_string)
                                        .collect::<Vec<_>>()
                                        .join(",")
                                )
                            };
                            (part.to_string(), pairs)
                        }
                        Err(e) => (format!("{p:?}"), format!("invalid: {e}")),
                    };
                    let _ = writeln!(out, "  {}. {rendered}  ({pairs})", i + 1);
                }
                if self.wrap.iter().any(|&w| w) {
                    let _ = writeln!(
                        out,
                        "  (wrap links void the mesh-scope guarantee: the certificate \
                         does not decide this verdict)"
                    );
                }
            }
            EbdaEvidence::Refusal { detail, .. } => {
                let _ = writeln!(out, "EbDa: not certifiable — {detail}");
                let _ = writeln!(
                    out,
                    "  (certificates are sufficient, not necessary; the verdict rests \
                     on the exact checks below)"
                );
            }
        }

        match &self.dally.cycle {
            None => {
                let _ = writeln!(
                    out,
                    "Dally: {} concrete channels, {} dependencies, acyclic CDG{}",
                    self.dally.channels,
                    self.dally.dependencies,
                    match &self.ordering {
                        Some(o) => format!("; channel ordering over {} channels attached", o.len()),
                        None => String::new(),
                    }
                );
            }
            Some(cycle) => {
                let _ = writeln!(
                    out,
                    "Dally: {} concrete channels, {} dependencies, dependency cycle of length {}",
                    self.dally.channels,
                    self.dally.dependencies,
                    cycle.len()
                );
            }
        }

        let drain = match (self.duato.escape_acyclic, self.duato.escape_connected) {
            (true, true) => {
                "escape subnetwork acyclic and connected — every packet can drain".to_string()
            }
            (false, _) => format!(
                "escape subnetwork cyclic{}",
                match &self.duato.escape_cycle {
                    Some(c) => format!(" (cycle of length {})", c.len()),
                    None => String::new(),
                }
            ),
            (true, false) => format!(
                "escape subnetwork acyclic but disconnected{}",
                match self.duato.unreachable {
                    Some((a, b)) => format!(" (node {a} cannot reach {b})"),
                    None => String::new(),
                }
            ),
        };
        let _ = writeln!(out, "Duato: {drain}");

        match &self.brute.witness {
            None => {
                let _ = writeln!(
                    out,
                    "brute force: {} hold/want pairs pruned to 0 in {} sweeps — the greatest \
                     fixed point is empty",
                    self.brute.pairs, self.brute.sweeps
                );
            }
            Some(witness) => {
                let _ = writeln!(
                    out,
                    "brute force: {} of {} hold/want pairs survive {} sweeps; witness circular \
                     wait of length {}:",
                    self.brute.surviving,
                    self.brute.pairs,
                    self.brute.sweeps,
                    witness.len()
                );
                for i in 0..witness.len() {
                    let (a, b) = (witness[i], witness[(i + 1) % witness.len()]);
                    let _ = writeln!(out, "  {a} holds, head wants {b}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, ArtifactKind};
    use crate::verdict::{evaluate, Mutation};
    use ebda_core::{catalog, extract_turns};

    fn design_artifact(id: u64, radix: Vec<usize>, seq: PartitionSeq) -> Artifact {
        let universe = seq.channels();
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        let dims = radix.len();
        let vcs = ebda_cdg::dally::infer_vcs(&universe, dims);
        Artifact {
            id,
            kind: ArtifactKind::Partitioning,
            wrap: vec![false; dims],
            radix,
            vcs,
            universe,
            turns,
            design: Some(seq),
        }
    }

    fn ring_artifact() -> Artifact {
        // A 4-node wrap ring using only X+: the classic circular wait.
        let universe = ebda_core::parse_channels("X+").unwrap();
        Artifact {
            id: 99,
            kind: ArtifactKind::RandomTurns,
            radix: vec![4],
            wrap: vec![true],
            vcs: vec![1],
            universe,
            turns: TurnSet::new(),
            design: None,
        }
    }

    #[test]
    fn positive_provenance_round_trips_and_checks() {
        let artifact = design_artifact(0, vec![3, 3], catalog::p1_xy());
        let verdicts = evaluate(&artifact, Mutation::None);
        let prov = Provenance::from_artifact(&artifact, &verdicts);
        assert!(prov.deadlock_free);
        assert!(
            prov.ordering.is_some(),
            "positive records carry an ordering"
        );
        assert!(matches!(prov.ebda, EbdaEvidence::Certificate { .. }));

        let json = prov.to_json();
        assert!(!json.contains('\n'), "provenance must be single-line");
        let back = Provenance::from_json(&json).unwrap();
        assert_eq!(back, prov);
        assert_eq!(back.to_json(), json, "round-trip is byte-exact");

        let report = prov.check().expect("evidence validates");
        assert!(report.deadlock_free);
        assert!(report.methods.contains(&"channel-ordering"));
        assert!(report.methods.contains(&"ebda-certificate"));
        assert!(report.obligations > 0);
    }

    #[test]
    fn negative_provenance_checks_its_witness() {
        let artifact = ring_artifact();
        let verdicts = evaluate(&artifact, Mutation::None);
        let prov = Provenance::from_artifact(&artifact, &verdicts);
        assert!(!prov.deadlock_free);
        let witness = prov.brute.witness.as_ref().expect("ring deadlocks");
        assert_eq!(witness.len(), 4);

        let back = Provenance::from_json(&prov.to_json()).unwrap();
        let report = back.check().expect("witness validates");
        assert!(!report.deadlock_free);
        assert_eq!(report.methods, vec!["witness-cycle"]);
    }

    #[test]
    fn checker_rejects_tampered_evidence() {
        let artifact = design_artifact(1, vec![3, 3], catalog::p3_west_first());
        let verdicts = evaluate(&artifact, Mutation::None);
        let prov = Provenance::from_artifact(&artifact, &verdicts);

        // Tampering with the serialized bytes trips the hash guard.
        let json = prov.to_json();
        let tampered = json.replace(
            "\"verdict\":\"deadlock-free\"",
            "\"verdict\":\"deadlocking\"",
        );
        assert!(
            Provenance::from_json(&tampered).is_err() || {
                // Same hash (the verdict is not hashed) — then check() must
                // reject the inconsistent record instead.
                Provenance::from_json(&tampered).unwrap().check().is_err()
            }
        );

        // Swapping two ordering entries breaks rank monotonicity.
        let mut swapped = prov.clone();
        let ordering = swapped.ordering.as_mut().unwrap();
        let last = ordering.len() - 1;
        ordering.swap(0, last);
        let err = swapped.check().unwrap_err();
        assert!(err.contains("descends"), "{err}");

        // A witness that is not a real cycle is rejected.
        let artifact = ring_artifact();
        let verdicts = evaluate(&artifact, Mutation::None);
        let mut neg = Provenance::from_artifact(&artifact, &verdicts);
        neg.brute.witness.as_mut().unwrap()[0].from = 2; // breaks adjacency
        assert!(neg.check().is_err());
    }

    #[test]
    fn wrapped_certificates_do_not_prove() {
        // The removed-dateline trap: EbDa certifies the classes, but the
        // wrap link voids the guarantee — on tori only the ordering (or
        // a witness) decides. Build a torus artifact whose turn set is
        // certifiable yet deadlocking.
        let artifact = ring_artifact();
        let verdicts = evaluate(&artifact, Mutation::None);
        let prov = Provenance::from_artifact(&artifact, &verdicts);
        // The single class X+ with no turns certifies trivially...
        assert!(matches!(prov.ebda, EbdaEvidence::Certificate { .. }));
        // ...but the record is negative and validated by its witness,
        // not the certificate.
        let report = prov.check().unwrap();
        assert_eq!(report.methods, vec!["witness-cycle"]);
    }

    #[test]
    fn checker_refuses_what_used_to_crash_it() {
        let artifact = ring_artifact();
        let verdicts = evaluate(&artifact, Mutation::None);
        let prov = Provenance::from_artifact(&artifact, &verdicts);

        // `Topology::mesh` asserts on a radix of 0.
        let mut flat = prov.clone();
        flat.radix = vec![0];
        let err = flat.check().unwrap_err();
        assert!(err.contains("radix 0"), "{err}");

        // A hop leaving a node the topology does not have decoded to
        // coordinates modulo the radix (and tripped a debug assertion):
        // nodes 4..8 of a 4-ring passed as the ring itself.
        let mut shifted = prov.clone();
        for hop in shifted.brute.witness.as_mut().unwrap() {
            hop.from += 4;
            hop.to += 4;
        }
        let err = shifted.check().unwrap_err();
        assert!(err.contains("is not a link of the topology"), "{err}");

        // `Turn::new` panics on a turn from a class to itself.
        let artifact = design_artifact(3, vec![3, 3], catalog::p1_xy());
        let verdicts = evaluate(&artifact, Mutation::None);
        let json = Provenance::from_artifact(&artifact, &verdicts).to_json();
        assert!(json.contains("\"X1+>Y1+\""), "{json}");
        let err = Provenance::from_json(&json.replace("\"X1+>Y1+\"", "\"X1+>X1+\"")).unwrap_err();
        assert!(err.contains("joins a channel class to itself"), "{err}");
    }

    #[test]
    fn documents_read_in_any_key_order_with_exact_integers() {
        let artifact = ring_artifact();
        let verdicts = evaluate(&artifact, Mutation::None);
        let prov = Provenance::from_artifact(&artifact, &verdicts);
        let json = prov.to_json();
        // Move the leading `format` and `hash` behind an unknown key at
        // the end: the same record.
        let head = format!("{{\"format\":2,\"hash\":\"{}\",", prov.hash_hex());
        let body = json.strip_prefix(&head).expect("format and hash lead");
        let moved = format!(
            "{{{},\"later\":{{\"x\":[1.5,null]}},\"hash\":\"{}\",\"format\":2}}",
            &body[..body.len() - 1],
            prov.hash_hex()
        );
        assert_eq!(Provenance::from_json(&moved).unwrap(), prov);
        // A count read through an `f64` rounded; a VC of 256 wrapped to 0.
        let exact = json.replace("\"pairs\":4,", "\"pairs\":9007199254740993,");
        assert_eq!(
            Provenance::from_json(&exact).unwrap().brute.pairs,
            (1 << 53) + 1
        );
        for (from, to) in [
            ("\"+\",1]", "\"+\",256]"),
            ("\"sweeps\":1,", "\"sweeps\":1.0,"),
        ] {
            assert!(json.contains(from), "{json}");
            let err = Provenance::from_json(&json.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains("integer"), "{err}");
        }
    }

    #[test]
    fn each_format_reads_its_own_hop_form_only() {
        let artifact = ring_artifact();
        let prov = Provenance::from_artifact(&artifact, &evaluate(&artifact, Mutation::None));
        let v2 = prov.to_json();
        let tuple = |h: &Hop| {
            let mut out = String::new();
            h.write_json(&mut out).unwrap();
            out
        };
        let object = |h: &Hop| {
            format!(
                "{{\"from\":{},\"to\":{},\"dim\":{},\"dir\":\"{}\",\"vc\":{}}}",
                h.from, h.to, h.dim, h.dir, h.vc
            )
        };
        // The document as format 1 wrote it: every hop an object.
        let hops: Vec<Hop> = [
            &prov.ordering,
            &prov.dally.cycle,
            &prov.duato.escape_cycle,
            &prov.brute.witness,
        ]
        .into_iter()
        .flatten()
        .flatten()
        .copied()
        .collect();
        assert!(hops.len() >= 8, "{v2}");
        let objects = hops
            .iter()
            .fold(v2.clone(), |doc, h| doc.replace(&tuple(h), &object(h)));
        let v1 = objects.replacen("{\"format\":2,", "{\"format\":1,", 1);
        let (first, last) = (tuple(&hops[0]), tuple(&hops[hops.len() - 1]));
        let rows = [
            (v2.clone(), None),
            (v1.clone(), None),
            // A whole document in the other format's hop form.
            (objects, Some("a format-2 document with a format-1 hop")),
            (
                v2.replacen("{\"format\":2,", "{\"format\":1,", 1),
                Some("a format-1 document with a format-2 hop"),
            ),
            // One hop of the other form among its own.
            (
                v2.replacen(&first, &object(&hops[0]), 1),
                Some("a format-2 document with a format-1 hop"),
            ),
            (
                v1.replacen(&object(&hops[0]), &first, 1),
                Some("a format-1 document with a format-2 hop"),
            ),
            // A tuple has five fields, a direction is a sign.
            (
                v2.replacen(&last, &last.replacen(",1]", "]", 1), 1),
                Some("hop lacks vc"),
            ),
            (
                v2.replacen(&last, &last.replacen(",1]", ",1,1]", 1), 1),
                Some("a hop is [from,to,dim,dir,vc]"),
            ),
            (
                v2.replacen(&last, &last.replacen("\"+\"", "\"x\"", 1), 1),
                Some("must be \"+\" or \"-\""),
            ),
            (
                v2.replacen("{\"format\":2,", "{\"format\":3,", 1),
                Some("unsupported provenance format 3"),
            ),
        ];
        for (doc, refusal) in rows {
            match (Provenance::from_json(&doc), refusal) {
                (Ok(read), None) => assert_eq!(read, prov),
                (Err(err), Some(want)) => assert!(err.contains(want), "{want}: {err}"),
                (got, want) => panic!("{got:?} where {want:?}: {doc}"),
            }
        }
    }

    #[test]
    fn narrative_mentions_every_path() {
        let artifact = design_artifact(2, vec![3, 3], catalog::p1_xy());
        let verdicts = evaluate(&artifact, Mutation::None);
        let text = Provenance::from_artifact(&artifact, &verdicts).narrative();
        for needle in [
            "problem ",
            "verdict: deadlock-free",
            "EbDa:",
            "Dally:",
            "Duato:",
            "brute force:",
        ] {
            assert!(
                text.contains(needle),
                "narrative missing {needle:?}:\n{text}"
            );
        }
    }
}
