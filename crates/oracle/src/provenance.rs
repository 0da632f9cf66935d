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
//! validate its own output.

use crate::artifact::Artifact;
use crate::brute::BruteChannel;
use crate::verdict::Verdicts;
use ebda_cdg::graph::ConcreteChannel;
use ebda_cdg::topology::Topology;
use ebda_core::certify::{certify, check_certificate, CertifyFailure};
use ebda_core::{canonical, Channel, Dimension, Direction, Partition, PartitionSeq, Turn, TurnSet};
use ebda_obs::json::{self, Value};

/// Provenance document format version (the `format` field).
pub const PROVENANCE_FORMAT: u64 = 1;

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

    fn to_json(self) -> String {
        format!(
            "{{\"from\":{},\"to\":{},\"dim\":{},\"dir\":\"{}\",\"vc\":{}}}",
            self.from,
            self.to,
            self.dim,
            match self.dir {
                Direction::Plus => "+",
                Direction::Minus => "-",
            },
            self.vc
        )
    }

    fn from_value(v: &Value) -> Result<Hop, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("hop field {key} missing or not a u64"))
        };
        let dir = match v.get("dir").and_then(Value::as_str) {
            Some("+") => Direction::Plus,
            Some("-") => Direction::Minus,
            other => return Err(format!("hop dir must be \"+\" or \"-\", got {other:?}")),
        };
        Ok(Hop {
            from: num("from")? as usize,
            to: num("to")? as usize,
            dim: num("dim")? as u8,
            dir,
            vc: num("vc")? as u8,
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
    /// The (brute-force, never-mutated) verdict this record justifies.
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

impl Provenance {
    /// Builds the provenance for an artifact's verdicts.
    ///
    /// The EbDa certificate and the channel ordering are re-derived
    /// honestly here (mutations in [`crate::verdict::evaluate`] affect
    /// only the campaign's cross-check inputs, never the evidence this
    /// record archives); the Dally/Duato/brute summaries are copied
    /// from the verdicts.
    pub fn from_artifact(artifact: &Artifact, verdicts: &Verdicts) -> Provenance {
        Provenance::build(
            &artifact.radix,
            &artifact.wrap,
            &artifact.vcs,
            &artifact.universe,
            &artifact.turns,
            verdicts,
        )
    }

    /// Builds the provenance for a (topology, turn-set) pair's verdicts.
    /// See [`Provenance::from_artifact`].
    pub fn build(
        radix: &[usize],
        wrap: &[bool],
        vcs: &[u8],
        universe: &[Channel],
        turns: &TurnSet,
        verdicts: &Verdicts,
    ) -> Provenance {
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
        let topo = Topology::mesh(radix).with_wrap(wrap);
        let ordering = if deadlock_free {
            ebda_cdg::dally::channel_ordering(&topo, vcs, universe, turns)
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
            radix: radix.to_vec(),
            wrap: wrap.to_vec(),
            vcs: vcs.to_vec(),
            universe: universe.to_vec(),
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
    pub fn content_hash(&self) -> u64 {
        canonical::canonical_hash(
            &self.radix,
            &self.wrap,
            &self.vcs,
            &self.universe,
            &self.turns,
        )
    }

    /// [`Provenance::content_hash`] in 16-digit lowercase hex.
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
            hash: self.hash_hex(),
            gfp_sweeps: self.brute.sweeps as u64,
            wait_pairs: self.brute.pairs as u64,
            coverage: coverage.map(|c| c.digest()).unwrap_or_default(),
            provenance: self.to_json(),
        }
    }

    /// Serializes the record as one line of fixed-key-order JSON (no
    /// trailing newline). Byte-deterministic: golden tests pin this.
    pub fn to_json(&self) -> String {
        let str_arr = |items: &mut dyn Iterator<Item = String>| {
            let body: Vec<String> = items.map(|s| json::escape(&s)).collect();
            format!("[{}]", body.join(","))
        };
        let hops = |h: &Option<Vec<Hop>>| match h {
            None => "null".to_string(),
            Some(hops) => {
                let body: Vec<String> = hops.iter().map(|h| h.to_json()).collect();
                format!("[{}]", body.join(","))
            }
        };
        let universe = str_arr(&mut self.universe.iter().map(|c| c.to_string()));
        let turns = str_arr(&mut self.turns.iter().map(|t| format!("{}>{}", t.from, t.to)));
        let ebda = match &self.ebda {
            EbdaEvidence::Certificate { partitions } => {
                let parts: Vec<String> = partitions
                    .iter()
                    .map(|p| str_arr(&mut p.iter().map(|c| c.to_string())))
                    .collect();
                format!("{{\"certificate\":[{}]}}", parts.join(","))
            }
            EbdaEvidence::Refusal { kind, detail } => format!(
                "{{\"refusal\":{{\"kind\":{},\"detail\":{}}}}}",
                json::escape(kind),
                json::escape(detail)
            ),
        };
        let unreachable = match self.duato.unreachable {
            None => "null".to_string(),
            Some((a, b)) => format!("[{a},{b}]"),
        };
        format!(
            "{{\"format\":{PROVENANCE_FORMAT},\"hash\":{},\"verdict\":{},\"radix\":[{}],\"wrap\":[{}],\"vcs\":[{}],\"universe\":{universe},\"turns\":{turns},\"ebda\":{ebda},\"ordering\":{},\"dally\":{{\"channels\":{},\"dependencies\":{},\"cycle\":{}}},\"duato\":{{\"escape_acyclic\":{},\"escape_cycle\":{},\"escape_connected\":{},\"unreachable\":{unreachable}}},\"brute\":{{\"channels\":{},\"pairs\":{},\"surviving\":{},\"sweeps\":{},\"witness\":{}}}}}",
            json::escape(&self.hash_hex()),
            json::escape(self.verdict_str()),
            self.radix.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(","),
            self.wrap.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(","),
            self.vcs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","),
            hops(&self.ordering),
            self.dally.channels,
            self.dally.dependencies,
            hops(&self.dally.cycle),
            self.duato.escape_acyclic,
            hops(&self.duato.escape_cycle),
            self.duato.escape_connected,
            self.brute.channels,
            self.brute.pairs,
            self.brute.surviving,
            self.brute.sweeps,
            hops(&self.brute.witness),
        )
    }

    /// Parses a provenance document, re-deriving the content hash and
    /// rejecting a mismatch with the declared one.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field, an unsupported
    /// format version, or the hash mismatch.
    pub fn from_json(text: &str) -> Result<Provenance, String> {
        let v = Value::parse(text)?;
        let format = v
            .get("format")
            .and_then(Value::as_u64)
            .ok_or("missing format")?;
        if format != PROVENANCE_FORMAT {
            return Err(format!(
                "unsupported provenance format {format} (this build reads {PROVENANCE_FORMAT})"
            ));
        }
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key}"))
        };
        let arr_field = |obj: &Value, key: &str| -> Result<Vec<Value>, String> {
            obj.get(key)
                .and_then(Value::as_arr)
                .map(<[Value]>::to_vec)
                .ok_or_else(|| format!("missing array field {key}"))
        };
        let u64s = |obj: &Value, key: &str| -> Result<Vec<u64>, String> {
            arr_field(obj, key)?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| format!("{key} entry not a u64")))
                .collect()
        };
        let bools = |obj: &Value, key: &str| -> Result<Vec<bool>, String> {
            arr_field(obj, key)?
                .iter()
                .map(|x| match x {
                    Value::Bool(b) => Ok(*b),
                    _ => Err(format!("{key} entry not a bool")),
                })
                .collect()
        };
        let bool_field = |obj: &Value, key: &str| -> Result<bool, String> {
            match obj.get(key) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("missing bool field {key}")),
            }
        };
        let usize_field = |obj: &Value, key: &str| -> Result<usize, String> {
            obj.get(key)
                .and_then(Value::as_u64)
                .map(|x| x as usize)
                .ok_or_else(|| format!("missing u64 field {key}"))
        };
        let hops_field = |obj: &Value, key: &str| -> Result<Option<Vec<Hop>>, String> {
            match obj.get(key) {
                Some(Value::Null) => Ok(None),
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(Hop::from_value)
                    .collect::<Result<_, _>>()
                    .map(Some),
                _ => Err(format!("field {key} must be null or an array of hops")),
            }
        };
        let channels = |items: &[Value]| -> Result<Vec<Channel>, String> {
            items
                .iter()
                .map(|x| {
                    let s = x.as_str().ok_or("channel entry not a string")?;
                    Channel::parse(s).map_err(|e| format!("channel {s}: {e}"))
                })
                .collect()
        };

        let radix: Vec<usize> = u64s(&v, "radix")?.into_iter().map(|x| x as usize).collect();
        let wrap = bools(&v, "wrap")?;
        let vcs: Vec<u8> = u64s(&v, "vcs")?.into_iter().map(|x| x as u8).collect();
        let universe = channels(&arr_field(&v, "universe")?)?;
        let mut turns = TurnSet::new();
        for t in arr_field(&v, "turns")? {
            let s = t.as_str().ok_or("turn entry not a string")?;
            let (from, to) = s
                .split_once('>')
                .ok_or_else(|| format!("turn {s}: no '>'"))?;
            turns.insert(Turn::new(
                Channel::parse(from).map_err(|e| format!("turn {s}: {e}"))?,
                Channel::parse(to).map_err(|e| format!("turn {s}: {e}"))?,
            ));
        }

        let ebda_obj = v.get("ebda").ok_or("missing ebda")?;
        let ebda = if let Some(parts) = ebda_obj.get("certificate") {
            let parts = parts.as_arr().ok_or("certificate must be an array")?;
            let partitions = parts
                .iter()
                .map(|p| channels(p.as_arr().ok_or("partition must be an array")?))
                .collect::<Result<_, _>>()?;
            EbdaEvidence::Certificate { partitions }
        } else if let Some(refusal) = ebda_obj.get("refusal") {
            EbdaEvidence::Refusal {
                kind: refusal
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("missing refusal kind")?
                    .to_string(),
                detail: refusal
                    .get("detail")
                    .and_then(Value::as_str)
                    .ok_or("missing refusal detail")?
                    .to_string(),
            }
        } else {
            return Err("ebda must carry a certificate or a refusal".to_string());
        };

        let dally_obj = v.get("dally").ok_or("missing dally")?;
        let duato_obj = v.get("duato").ok_or("missing duato")?;
        let brute_obj = v.get("brute").ok_or("missing brute")?;
        let unreachable = match duato_obj.get("unreachable") {
            Some(Value::Null) => None,
            Some(Value::Arr(pair)) if pair.len() == 2 => {
                let a = pair[0].as_u64().ok_or("unreachable entry not a u64")?;
                let b = pair[1].as_u64().ok_or("unreachable entry not a u64")?;
                Some((a as usize, b as usize))
            }
            _ => return Err("unreachable must be null or a [from,to] pair".to_string()),
        };

        let verdict = str_field("verdict")?;
        let deadlock_free = match verdict.as_str() {
            "deadlock-free" => true,
            "deadlocking" => false,
            other => return Err(format!("unknown verdict {other:?}")),
        };

        let prov = Provenance {
            radix,
            wrap,
            vcs,
            universe,
            turns,
            deadlock_free,
            ebda,
            ordering: hops_field(&v, "ordering")?,
            dally: DallyEvidence {
                channels: usize_field(dally_obj, "channels")?,
                dependencies: usize_field(dally_obj, "dependencies")?,
                cycle: hops_field(dally_obj, "cycle")?,
            },
            duato: DuatoEvidence {
                escape_acyclic: bool_field(duato_obj, "escape_acyclic")?,
                escape_cycle: hops_field(duato_obj, "escape_cycle")?,
                escape_connected: bool_field(duato_obj, "escape_connected")?,
                unreachable,
            },
            brute: BruteEvidence {
                channels: usize_field(brute_obj, "channels")?,
                pairs: usize_field(brute_obj, "pairs")?,
                surviving: usize_field(brute_obj, "surviving")?,
                sweeps: usize_field(brute_obj, "sweeps")?,
                witness: hops_field(brute_obj, "witness")?,
            },
        };
        let declared = str_field("hash")?;
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

    /// The universe classes matching a hop at its source node.
    fn matching_classes(&self, topo: &Topology, hop: Hop) -> Vec<Channel> {
        let coords = topo.coords(hop.from);
        self.universe
            .iter()
            .copied()
            .filter(|cl| {
                cl.dim.index() == hop.dim as usize
                    && cl.dir == hop.dir
                    && cl.vc == hop.vc
                    && cl.class.contains(&coords)
            })
            .collect()
    }

    /// Is the hold→want step `a` → `b` admissible? Adjacent on the
    /// topology, and some pair of matching classes allows the turn.
    fn step_allowed(&self, topo: &Topology, a: Hop, b: Hop) -> bool {
        a.to == b.from
            && self.matching_classes(topo, a).iter().any(|&ca| {
                self.matching_classes(topo, b)
                    .iter()
                    .any(|&cb| self.turns.allows(ca, cb))
            })
    }

    /// Confirms a hop is a real link of the topology with a live VC and
    /// at least one matching universe class.
    fn check_hop(&self, topo: &Topology, hop: Hop) -> Result<(), String> {
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
        match topo.neighbor(hop.from, Dimension::new(hop.dim), hop.dir) {
            Some(to) if to == hop.to => {}
            _ => return Err(format!("hop {hop} is not a link of the topology")),
        }
        if self.matching_classes(topo, hop).is_empty() {
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
        let mut obligations = 0usize;
        for &hop in cycle {
            self.check_hop(topo, hop)?;
            obligations += 1;
        }
        for i in 0..cycle.len() {
            let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            if !self.step_allowed(topo, a, b) {
                return Err(format!(
                    "witness step {a} → {b} is not an admissible hold/want pair"
                ));
            }
            obligations += 1;
        }
        Ok(obligations)
    }

    /// Validates a channel ordering: it must cover every concrete
    /// channel exactly once, and every independently enumerated
    /// admissible hold/want pair must ascend in it.
    fn check_ordering(&self, topo: &Topology, ordering: &[Hop]) -> Result<usize, String> {
        let mut obligations = 0usize;
        // Independent enumeration: every VC of every directed link.
        let mut expected = Vec::new();
        for node in 0..topo.node_count() {
            for d in 0..self.radix.len() {
                for dir in [Direction::Plus, Direction::Minus] {
                    if let Some(to) = topo.neighbor(node, Dimension::new(d as u8), dir) {
                        for vc in 1..=self.vcs[d] {
                            expected.push(Hop {
                                from: node,
                                to,
                                dim: d as u8,
                                dir,
                                vc,
                            });
                        }
                    }
                }
            }
        }
        let key = |h: Hop| (h.from, h.to, h.dim, h.dir == Direction::Plus, h.vc);
        let mut rank = std::collections::BTreeMap::new();
        for (i, &h) in ordering.iter().enumerate() {
            if rank.insert(key(h), i).is_some() {
                return Err(format!("ordering lists {h} twice"));
            }
        }
        if ordering.len() != expected.len() {
            return Err(format!(
                "ordering covers {} channels, topology has {}",
                ordering.len(),
                expected.len()
            ));
        }
        for &h in &expected {
            obligations += 1;
            if !rank.contains_key(&key(h)) {
                return Err(format!("ordering misses concrete channel {h}"));
            }
        }
        // Group by source node for the pair sweep.
        let mut by_from: Vec<Vec<Hop>> = vec![Vec::new(); topo.node_count()];
        for &h in &expected {
            by_from[h.from].push(h);
        }
        for &a in &expected {
            for &b in &by_from[a.to] {
                if self.step_allowed(topo, a, b) {
                    obligations += 1;
                    if rank[&key(a)] >= rank[&key(b)] {
                        return Err(format!(
                            "dependency {a} → {b} descends in the channel ordering"
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
