//! `campaign`: artifacts per second through all four verdict paths with
//! evidence — the CI and research use.
//!
//! The oracle, corpus and obs I/O crates do the work, on many tiny
//! graphs (at most 36 nodes): `oracle::run_campaign` over 200 generated
//! artifacts and `corpus::run_corpus_campaign` over the 50 entries of
//! `corpus/seed/`, both writing a ledger and a coverage map, then the
//! `check-cert` loop over both ledgers. Construction is
//! `corpus::store::load_dir` plus fresh temp paths.
//!
//! The body runs at `threads: 1`. At `threads: 2` on the 2-vCPU shared
//! host the benchmark was sized on, ten 20 s runs of this same body
//! spread by 11% (wall 0.115 to 0.138 s, quartile distance over median)
//! against 3% for every single-threaded workload: two threads need both
//! virtual CPUs quiet at once. What the par crate costs and buys is
//! measured instead as same-run ratios in the traced run
//! (`par.speedup_t2`, `par.fork_join_ns`), and the warm-up still checks
//! that two threads write the same bytes as one.
//!
//! The 200 artifacts come as two campaigns appending to one ledger: 180
//! of the default seed's stream and 20 of `--seed`'s. Per-artifact cost
//! is heavy-tailed in node count (Duato's BFS is quadratic), so a fully
//! seeded stream moves the work itself from seed to seed — Duato time by
//! a standard deviation of 6% over ten seeds, and even with 40 seeded
//! the allocation count still ranged over 10% — which no bound could
//! see through; one tenth seeded keeps it near 2% and still denies an
//! optimisation a fixed input to overfit.
//!
//! Operation: one artifact or entry carried from generation to a
//! re-checked certificate. Known answers: the four paths agree, every
//! corpus entry matches its label, every certificate and witness
//! checks; at the default seed the verdict tallies, coverage digests
//! and record count are pinned through the digest (ledger *bytes* are
//! not: they embed `git_rev`).

use super::pipeline::{
    check_ledger, evaluate_traced, evidence_traced, ledger_record, Checked, TempFile, ORACLE_NAMES,
};
use crate::harness::{best_of, Checks, Digest, Outcome, Workload, DEFAULT_SEED};
use crate::trace::{Metrics, Tracer};
use ebda_corpus::{run_corpus_campaign, CorpusCampaignConfig, CorpusEntry};
use ebda_obs::{CoverageMap, LedgerRecord};
use ebda_oracle::{
    brute_search, evaluate, run_campaign, shrink, Artifact, ArtifactKind, CampaignConfig,
    Generator, Mutation,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Artifacts drawn from the default seed's stream and from `--seed`'s.
const PINNED_ARTIFACTS: usize = 180;
const SEEDED_ARTIFACTS: usize = 20;
const ARTIFACTS: usize = PINNED_ARTIFACTS + SEEDED_ARTIFACTS;
const MAX_NODES: usize = 36;
/// Thread count of the measured body.
const THREADS: usize = 1;
/// Thread count of the determinism check and the par probes.
const PAR_THREADS: usize = 2;

pub struct Campaign {
    seed: u64,
}

impl Campaign {
    pub fn new(seed: u64) -> Campaign {
        Campaign { seed }
    }

    /// `(seed, artifacts)` of the two oracle campaigns.
    fn parts(&self) -> [(u64, usize); 2] {
        [
            (DEFAULT_SEED, PINNED_ARTIFACTS),
            (self.seed, SEEDED_ARTIFACTS),
        ]
    }
}

fn oracle_config(
    (seed, artifacts): (u64, usize),
    threads: usize,
    ledger: &TempFile,
    coverage: &TempFile,
) -> CampaignConfig {
    CampaignConfig {
        seed,
        budget: Duration::ZERO,
        min_configs: artifacts,
        max_nodes: MAX_NODES,
        threads,
        ledger: Some(ledger.path().to_path_buf()),
        coverage: Some(coverage.path().to_path_buf()),
        ..CampaignConfig::default()
    }
}

fn corpus_config(threads: usize, ledger: &TempFile, coverage: &TempFile) -> CorpusCampaignConfig {
    CorpusCampaignConfig {
        threads,
        ledger: Some(ledger.path().to_path_buf()),
        coverage: Some(coverage.path().to_path_buf()),
        ..CorpusCampaignConfig::default()
    }
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus/seed")
}

pub struct Inputs {
    entries: Vec<CorpusEntry>,
    /// Both oracle campaigns append here.
    oracle_ledger: TempFile,
    oracle_coverage: [TempFile; 2],
    corpus_ledger: TempFile,
    corpus_coverage: TempFile,
}

/// The tallies `CampaignReport` carries, kept by the traced body too.
#[derive(Default)]
struct Tallies {
    /// Partitionings, channel orderings, random turn relations.
    kinds: [u64; 3],
    deadlock_free: u64,
    deadlocking: u64,
    ebda_accepted: u64,
    duato_connected: u64,
}

impl Tallies {
    fn add(&mut self, kinds: [usize; 3], free: usize, dead: usize, ebda: usize, duato: usize) {
        for (k, n) in self.kinds.iter_mut().zip(kinds) {
            *k += n as u64;
        }
        self.deadlock_free += free as u64;
        self.deadlocking += dead as u64;
        self.ebda_accepted += ebda as u64;
        self.duato_connected += duato as u64;
    }

    fn digest_into(&self, d: &mut Digest) {
        for x in self.kinds {
            d.u64(x);
        }
        for x in [
            self.deadlock_free,
            self.deadlocking,
            self.ebda_accepted,
            self.duato_connected,
        ] {
            d.u64(x);
        }
    }
}

/// Digest of one repetition: tallies, the three coverage digests, and
/// what `check-cert` established about every record of both ledgers.
fn outcome(
    tallies: &Tallies,
    coverage: [String; 3],
    checked: [&[Checked]; 2],
    entries: usize,
    checks: &mut Checks,
) -> Outcome {
    let mut d = Digest::new();
    tallies.digest_into(&mut d);
    for c in &coverage {
        d.str(c);
    }
    for (records, want) in checked.into_iter().zip([ARTIFACTS, entries]) {
        checks.op(records.len() == want, || {
            format!("check-cert passed {} of {want} records", records.len())
        });
        d.u64(records.len() as u64);
        for c in records {
            c.digest_into(&mut d);
        }
    }
    Outcome {
        digest: d.finish(),
        ops: (ARTIFACTS + entries) as u64,
    }
}

/// The label check of `corpus::campaign`: every path's verdict against
/// the entry's proven one.
fn label_mismatch(entry: &CorpusEntry, v: &ebda_oracle::Verdicts) -> Option<String> {
    let want = entry.expected.is_free();
    let got = [
        ("brute", v.brute.is_deadlock_free()),
        ("dally", v.dally.is_deadlock_free()),
        ("duato", v.duato.escape_acyclic),
    ];
    if let Some((path, _)) = got.iter().find(|(_, free)| *free != want) {
        return Some(format!("{}: {path} contradicts the label", entry.name));
    }
    match &v.ebda {
        Some(e) if e.is_deadlock_free() != entry.ebda_certified => {
            Some(format!("{}: ebda contradicts ebda_certified", entry.name))
        }
        _ => None,
    }
}

impl Workload for Campaign {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "campaign"
    }

    fn construct(&self, t: &mut Tracer) -> Inputs {
        let entries = t.call("corpus.load", || {
            ebda_corpus::store::load_dir(&corpus_dir()).expect("corpus/seed loads")
        });
        t.count("corpus.entries", entries.len() as u64);
        Inputs {
            entries,
            oracle_ledger: TempFile::new("oracle-ledger.jsonl"),
            oracle_coverage: [
                TempFile::new("oracle-coverage-pinned.json"),
                TempFile::new("oracle-coverage-seeded.json"),
            ],
            corpus_ledger: TempFile::new("corpus-ledger.jsonl"),
            corpus_coverage: TempFile::new("corpus-coverage.json"),
        }
    }

    fn body(&self, inp: &Inputs, checks: &mut Checks) -> Outcome {
        let digest_of =
            |map: &Option<CoverageMap>| map.as_ref().map_or(String::new(), |m| m.digest());
        let mut tallies = Tallies::default();
        let mut coverage = Vec::new();
        for (part, file) in self.parts().into_iter().zip(&inp.oracle_coverage) {
            let r = run_campaign(&oracle_config(part, THREADS, &inp.oracle_ledger, file));
            checks.op(r.is_clean(), || {
                format!(
                    "oracle campaign: {}",
                    r.caught.as_ref().unwrap().disagreement
                )
            });
            tallies.add(
                [r.partitionings, r.orderings, r.random_turns],
                r.deadlock_free,
                r.deadlocking,
                r.ebda_accepted,
                r.duato_connected,
            );
            coverage.push(digest_of(&r.coverage));
        }
        let corpus = run_corpus_campaign(
            &inp.entries,
            &corpus_config(THREADS, &inp.corpus_ledger, &inp.corpus_coverage),
        );
        for m in &corpus.mismatches {
            checks.op(false, || format!("corpus entry {}: {}", m.name, m.reason));
        }
        coverage.push(digest_of(&corpus.coverage));
        let t = &mut Tracer::off();
        let oracle_checked = check_ledger(inp.oracle_ledger.path(), t, checks);
        let corpus_checked = check_ledger(inp.corpus_ledger.path(), t, checks);
        outcome(
            &tallies,
            coverage.try_into().expect("three coverage maps"),
            [&oracle_checked, &corpus_checked],
            inp.entries.len(),
            checks,
        )
    }

    /// Ledger and coverage bytes must not depend on the thread count.
    fn warmup_checks(&self, inp: &Inputs, checks: &mut Checks) {
        let threaded = [
            TempFile::new("t2-oracle-ledger.jsonl"),
            TempFile::new("t2-oracle-coverage-pinned.json"),
            TempFile::new("t2-oracle-coverage-seeded.json"),
            TempFile::new("t2-corpus-ledger.jsonl"),
            TempFile::new("t2-corpus-coverage.json"),
        ];
        for (part, file) in self.parts().into_iter().zip(&threaded[1..3]) {
            run_campaign(&oracle_config(part, PAR_THREADS, &threaded[0], file));
        }
        run_corpus_campaign(
            &inp.entries,
            &corpus_config(PAR_THREADS, &threaded[3], &threaded[4]),
        );
        let serial = [
            &inp.oracle_ledger,
            &inp.oracle_coverage[0],
            &inp.oracle_coverage[1],
            &inp.corpus_ledger,
            &inp.corpus_coverage,
        ];
        for (threaded, serial) in threaded.iter().zip(serial) {
            let same = match (std::fs::read(threaded.path()), std::fs::read(serial.path())) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            };
            checks.op(same, || {
                format!(
                    "{} differs at {PAR_THREADS} threads",
                    serial.path().display()
                )
            });
        }
    }

    /// The campaigns again, one span per layer call:
    /// generation, each verdict path, cross-check, provenance, coverage,
    /// ledger and coverage I/O, certificate parse and check.
    fn traced_body(&self, inp: &Inputs, t: &mut Tracer, checks: &mut Checks) -> Outcome {
        let git_rev = t.call("obs.git_rev", ebda_obs::ledger::git_rev);
        let mut tallies = Tallies::default();
        let mut coverage = Vec::new();
        let mut op = 0;
        for ((seed, count), file) in self.parts().into_iter().zip(&inp.oracle_coverage) {
            let artifacts: Vec<Artifact> = t.call("oracle.generate", || {
                let mut generator = Generator::with_max_nodes(seed, MAX_NODES);
                (0..count).map(|_| generator.next_artifact()).collect()
            });
            let mut map =
                CoverageMap::new(format!("oracle-seed-{seed}-mutation-{}", Mutation::None));
            let mut records: Vec<LedgerRecord> = Vec::new();
            for artifact in &artifacts {
                t.set_op(op);
                op += 1;
                let verdicts = evaluate_traced(artifact, &ORACLE_NAMES, t);
                let evidence = evidence_traced(artifact, &verdicts, t, checks);
                t.call("obs.coverage_merge", || map.merge(&evidence.coverage));
                let kind = |k| usize::from(artifact.kind == k);
                let free = verdicts.brute.is_deadlock_free();
                tallies.add(
                    [
                        kind(ArtifactKind::Partitioning),
                        kind(ArtifactKind::ChannelOrdering),
                        kind(ArtifactKind::RandomTurns),
                    ],
                    usize::from(free),
                    usize::from(!free),
                    usize::from(verdicts.ebda.as_ref().is_some_and(|e| e.is_deadlock_free())),
                    usize::from(verdicts.duato.escape_connected),
                );
                records.push(ledger_record(
                    "oracle",
                    artifact.summary(),
                    &git_rev,
                    seed,
                    &verdicts,
                    &evidence,
                ));
            }
            t.call("obs.ledger_append", || {
                ebda_obs::ledger::append(inp.oracle_ledger.path(), &records).expect("ledger append")
            });
            t.call("obs.coverage_write", || {
                map.write_file(file.path()).expect("coverage write")
            });
            coverage.push(map.digest());
        }

        let joined: String = inp.entries.iter().map(|e| e.hash_hex()).collect();
        let mut map = CoverageMap::new(format!(
            "corpus-{}",
            ebda_obs::coverage::fnv1a_hex(joined.as_bytes())
        ));
        let mut records: Vec<LedgerRecord> = Vec::new();
        for (i, entry) in inp.entries.iter().enumerate() {
            t.set_op(ARTIFACTS + i);
            let artifact = entry.to_artifact(i as u64);
            let verdicts = evaluate_traced(&artifact, &ORACLE_NAMES, t);
            let mismatch = label_mismatch(entry, &verdicts);
            checks.op(mismatch.is_none(), || mismatch.unwrap());
            let evidence = evidence_traced(&artifact, &verdicts, t, checks);
            t.call("obs.coverage_merge", || map.merge(&evidence.coverage));
            records.push(ledger_record(
                "corpus",
                entry.name.clone(),
                &git_rev,
                0,
                &verdicts,
                &evidence,
            ));
        }
        t.call("obs.ledger_append", || {
            ebda_obs::ledger::append(inp.corpus_ledger.path(), &records).expect("ledger append")
        });
        t.call("obs.coverage_write", || {
            map.write_file(inp.corpus_coverage.path())
                .expect("coverage write")
        });
        coverage.push(map.digest());

        let oracle_checked = check_ledger(inp.oracle_ledger.path(), t, checks);
        let corpus_checked = check_ledger(inp.corpus_ledger.path(), t, checks);
        outcome(
            &tallies,
            coverage.try_into().expect("three coverage maps"),
            [&oracle_checked, &corpus_checked],
            inp.entries.len(),
            checks,
        )
    }

    fn pinned_digest(&self) -> u64 {
        0x4148_1d28_6515_45f7
    }

    fn probes(&self, m: &mut Metrics) {
        const REPS: usize = 10;
        let inp = self.construct(&mut Tracer::off());

        // The corpus crate's own per-entry check: label against all
        // four paths.
        let ns = best_of(REPS, || {
            for (i, entry) in inp.entries.iter().enumerate() {
                let reason = ebda_corpus::campaign::check_entry(entry, i as u64, Mutation::None);
                assert!(black_box(reason).is_none());
            }
        });
        m.set("corpus.check_entry_ns", ns);

        // What a fork-join costs with nothing to do, and what the second
        // thread buys on the campaign's evaluate stage (base = serial).
        let noop = [0u8; 64];
        let ns = best_of(200, || {
            black_box(ebda_par::parallel_map(PAR_THREADS, &noop, |_, &x| x));
        });
        m.set("par.fork_join_ns", ns);
        // Items the campaigns hand to `parallel_map` in one repetition.
        m.set("par.tasks", (ARTIFACTS + inp.entries.len()) as f64);
        let mut generator = Generator::with_max_nodes(DEFAULT_SEED, MAX_NODES);
        let artifacts: Vec<Artifact> = (0..ARTIFACTS).map(|_| generator.next_artifact()).collect();
        let stage = |threads| {
            best_of(REPS, || {
                black_box(ebda_par::parallel_map(threads, &artifacts, |_, a| {
                    evaluate(a, Mutation::None)
                }));
            })
        };
        m.set("par.speedup_t2", stage(1) / stage(PAR_THREADS));

        // The shrinker on the classic torus-rings counterexample.
        let rings = Artifact {
            id: 0,
            kind: ArtifactKind::ChannelOrdering,
            radix: vec![4, 4],
            wrap: vec![true, true],
            vcs: vec![1, 1],
            universe: ebda_core::parse_channels("X+ X- Y+ Y-").expect("parses"),
            turns: ebda_core::TurnSet::new(),
            design: None,
        };
        let evals = AtomicU64::new(0);
        let ns = best_of(REPS, || {
            evals.store(0, Ordering::Relaxed);
            let small = shrink(
                &rings,
                |a| {
                    evals.fetch_add(1, Ordering::Relaxed);
                    !brute_search(&a.topology(), &a.vcs, &a.universe, &a.turns).is_deadlock_free()
                },
                ebda_oracle::shrink::DEFAULT_SHRINK_BUDGET,
            );
            assert_eq!(small.universe.len(), 1);
        });
        m.set("oracle.shrink_ns", ns);
        m.set("oracle.shrink_evals", evals.load(Ordering::Relaxed) as f64);
    }
}
