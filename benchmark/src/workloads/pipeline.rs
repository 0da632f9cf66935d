//! The four verdict paths and the evidence round trip, taken apart into
//! one traced call per layer. `verify-scale` and `campaign` both walk an
//! artifact through these steps; their untraced bodies call the
//! program's composite entry points (`oracle::evaluate`,
//! `run_campaign`) instead, and the digests of the two must agree.

use crate::harness::{Checks, Digest};
use crate::trace::Tracer;
use ebda_cdg::dally::VerificationReport;
use ebda_cdg::duato::verify_escape_given;
use ebda_cdg::Cdg;
use ebda_core::design_verdict;
use ebda_obs::{CoverageMap, LedgerRecord};
use ebda_oracle::{artifact_coverage, brute_search, cross_check, Artifact, Provenance, Verdicts};
use std::path::{Path, PathBuf};

/// Span names of the three CDG-side verdict paths. `verify-scale` asks
/// where inside the cdg crate the time goes (`dally: None` splits the
/// Dally path into build and cycle search); `campaign` asks what each
/// oracle path costs per artifact.
pub struct PathNames {
    pub ebda: &'static str,
    pub dally: Option<&'static str>,
    pub duato: &'static str,
}

pub const CDG_NAMES: PathNames = PathNames {
    ebda: "core.design_verdict",
    dally: None,
    duato: "cdg.duato_connectivity",
};

pub const ORACLE_NAMES: PathNames = PathNames {
    ebda: "oracle.ebda",
    dally: Some("oracle.dally"),
    duato: "oracle.duato",
};

/// `oracle::evaluate(artifact, Mutation::None)`, one span per path.
pub fn evaluate_traced(artifact: &Artifact, names: &PathNames, t: &mut Tracer) -> Verdicts {
    let topo = artifact.topology();
    let (vcs, universe, turns) = (&artifact.vcs, &artifact.universe, &artifact.turns);
    let ebda = t.call(names.ebda, || artifact.design.as_ref().map(design_verdict));
    let dally = match names.dally {
        Some(name) => t.call(name, || {
            ebda_cdg::verify_turn_set(&topo, vcs, universe, turns)
        }),
        None => {
            let cdg = t.call("cdg.build", || {
                Cdg::from_turn_set(&topo, vcs, universe, turns)
            });
            t.work(cdg.edge_count() as u64);
            VerificationReport {
                channels: cdg.node_count(),
                dependencies: cdg.edge_count(),
                cycle: t.call("cdg.cycle", || cdg.find_cycle()),
            }
        }
    };
    let duato = t.call(names.duato, || {
        verify_escape_given(&dally, &topo, universe, turns)
    });
    t.work(topo.node_count() as u64);
    let brute = t.call("oracle.brute", || brute_search(&topo, vcs, universe, turns));
    t.count("oracle.gfp_sweeps", brute.sweeps as u64);
    t.count("oracle.wait_pairs", brute.pairs as u64);
    Verdicts {
        ebda,
        dally,
        duato,
        brute,
    }
}

/// The ledger record `ebda verify --ledger` and the campaigns write for
/// one verdict.
pub fn ledger_record(
    source: &str,
    name: String,
    git_rev: &str,
    seed: u64,
    verdicts: &Verdicts,
    evidence: &Evidence,
) -> LedgerRecord {
    let prov = &evidence.provenance;
    LedgerRecord {
        index: 0,
        source: source.into(),
        name,
        git_rev: git_rev.into(),
        seed,
        verdict: prov.verdict_str().into(),
        evidence: if prov.deadlock_free {
            "certificate".into()
        } else {
            "witness".into()
        },
        hash: prov.hash_hex(),
        gfp_sweeps: verdicts.brute.sweeps as u64,
        wait_pairs: verdicts.brute.pairs as u64,
        coverage: evidence.coverage_digest.clone(),
        provenance: evidence.provenance_json.clone(),
    }
}

/// What backs one verdict's ledger record.
pub struct Evidence {
    pub provenance: Provenance,
    pub provenance_json: String,
    pub coverage: CoverageMap,
    pub coverage_digest: String,
}

/// Cross-check, provenance and coverage of one evaluated artifact, one
/// span each.
pub fn evidence_traced(
    artifact: &Artifact,
    verdicts: &Verdicts,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Evidence {
    let disagreement = t.call("oracle.cross_check", || cross_check(artifact, verdicts));
    checks.op(disagreement.is_none(), || {
        format!("verdict paths disagree: {}", disagreement.as_ref().unwrap())
    });
    let (provenance, provenance_json) = t.call("oracle.provenance_build", || {
        let prov = Provenance::from_artifact(artifact, verdicts);
        let json = prov.to_json();
        (prov, json)
    });
    t.count("oracle.provenance_bytes", provenance_json.len() as u64);
    let coverage = t.call("oracle.coverage", || artifact_coverage(artifact, verdicts));
    let coverage_digest = t.call("obs.coverage_digest", || coverage.digest());
    Evidence {
        provenance,
        provenance_json,
        coverage,
        coverage_digest,
    }
}

/// What `ebda check-cert` established about one ledger line.
pub struct Checked {
    pub hash: String,
    pub deadlock_free: bool,
    pub obligations: usize,
}

/// `ebda check-cert FILE`: re-validates every record's evidence without
/// calling a prover. Each record that fails is one failed operation.
pub fn check_ledger(path: &Path, t: &mut Tracer, checks: &mut Checks) -> Vec<Checked> {
    let text = t.call("io.read_ledger", || {
        std::fs::read_to_string(path).expect("read the ledger the body just wrote")
    });
    t.count("obs.ledger_bytes", text.len() as u64);
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        t.set_op(i);
        let checked = (|| {
            let rec = t.call("obs.ledger_parse", || LedgerRecord::from_line(line))?;
            let prov = t.call("oracle.cert_parse", || {
                Provenance::from_json(&rec.provenance)
            })?;
            if rec.hash != prov.hash_hex() || rec.verdict != prov.verdict_str() {
                return Err(format!(
                    "record #{} disagrees with its provenance",
                    rec.index
                ));
            }
            let report = t.call("oracle.cert_check", || prov.check())?;
            t.count("oracle.cert_obligations", report.obligations as u64);
            Ok(Checked {
                hash: rec.hash,
                deadlock_free: report.deadlock_free,
                obligations: report.obligations,
            })
        })();
        match checked {
            Ok(c) => out.push(c),
            Err(e) => checks.op(false, || format!("check-cert line {}: {e}", i + 1)),
        }
    }
    out
}

impl Checked {
    pub fn digest_into(&self, d: &mut Digest) {
        d.str(&self.hash);
        d.u64(u64::from(self.deadlock_free));
        d.u64(self.obligations as u64);
    }
}

/// A file under `benchmark/out/` that is removed when dropped; every
/// repetition gets fresh ones, so no run reads what another wrote.
pub struct TempFile(PathBuf);

impl TempFile {
    pub fn new(stem: &str) -> TempFile {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = crate::out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the run's temp dir");
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempFile(dir.join(format!("{stem}-{n}")))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        // Already absent when the body never wrote it.
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            // Succeeds only for the run's last file.
            let _ = std::fs::remove_dir(dir);
        }
    }
}
