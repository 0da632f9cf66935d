//! The differential campaign: generate, cross-check, shrink, replay.
//!
//! [`run_campaign`] is the oracle's single entry point, shared by the
//! `ebda oracle` command, the integration tests and CI. It is the
//! generator-stream source of the one [`campaign`] loop: it yields
//! 16-artifact batches of the deterministic [`Generator`] stream under
//! its budget, holds each artifact to the agreement of all four verdict
//! paths, and stops loudly at the first cross-check violation. The loop
//! minimizes it with the rule's own predicate; this source then replays
//! the result through the wormhole simulator with a flight recorder
//! attached, so the abstract disagreement arrives as a concrete,
//! watchable wait cycle.

use crate::artifact::{Artifact, ArtifactKind, Generator};
use crate::brute::BruteChannel;
use crate::campaign::{self, Expectation, Settings, Source, Violation};
use crate::shrink::DEFAULT_SHRINK_BUDGET;
use crate::verdict::{cross_check, evaluate, Disagreement, Mutation, Verdicts};
use ebda_obs::{EventKind, JourneyConfig, Recorder, RecorderConfig, Rng64, TraceBuilder};
use ebda_routing::{PortVc, RouteChoice, RouteState, RoutingRelation, TurnRouting, INJECT};
use noc_sim::{BufferPolicy, ChannelCoord, Outcome, SimConfig, TrafficPattern};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Configuration of one differential campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed of the artifact stream (and of the replay traffic).
    pub seed: u64,
    /// Wall-clock budget; generation continues until it is exhausted
    /// *and* `min_configs` artifacts have been checked.
    pub budget: Duration,
    /// Minimum number of artifacts to check even if the budget runs out.
    pub min_configs: usize,
    /// Hard ceiling on artifacts checked (budget notwithstanding).
    pub max_configs: usize,
    /// Node ceiling for generated topologies.
    pub max_nodes: usize,
    /// Optional deliberately-broken checker (see [`Mutation`]).
    pub mutation: Mutation,
    /// Fraction of replayed packets whose journeys are traced, in
    /// `[0, 1]`; replays are small, so tracing everything is the default.
    pub journey_sample_rate: f64,
    /// Worker threads for artifact checking; 0 resolves via
    /// [`ebda_par::threads`] (`--threads` / `EBDA_THREADS` / hardware).
    pub threads: usize,
    /// When set, append one [`ebda_obs::ledger`] record per verdict —
    /// in stream order, so ledger bytes are identical at any thread
    /// count. Speculative evaluations past a first disagreement are
    /// discarded, exactly like the tallies.
    pub ledger: Option<std::path::PathBuf>,
    /// When set, write the campaign's merged coverage map (see
    /// [`ebda_obs::coverage`]) to this file as canonical JSON. Workers
    /// extract per-artifact coverage in parallel; the coordinator
    /// merges in stream order, so the map bytes are identical at any
    /// thread count.
    pub coverage: Option<std::path::PathBuf>,
    /// Bias the artifact generator toward unseen design-space shape
    /// bins: for each stream slot, up to a fixed number of candidates
    /// are drawn and the first whose [`crate::coverage::shape_bin`] is
    /// new this campaign is kept. Fully seed-deterministic — the extra
    /// draws come from the same stream. Implies coverage tracking (the
    /// report carries the map) even without a `coverage` path.
    pub coverage_guided: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 7,
            budget: Duration::from_secs(10),
            min_configs: 500,
            max_configs: usize::MAX,
            max_nodes: 36,
            mutation: Mutation::None,
            journey_sample_rate: 1.0,
            threads: 0,
            ledger: None,
            coverage: None,
            coverage_guided: false,
        }
    }
}

/// The replayed counterexample: what the simulator observed when the
/// shrunk artifact's relation was flooded with traffic.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Whether the watchdog declared a deadlock.
    pub deadlocked: bool,
    /// The diagnosed circular wait (one entry per blocked packet).
    pub wait_cycle: Vec<String>,
    /// Wait-for edges captured by the flight recorder.
    pub wait_edges: usize,
    /// Times the *online* stall watchdog tripped before the verdict.
    pub watchdog_trips: u64,
    /// The online watchdog's suspected wait cycle (edge labels), captured
    /// while the run was still going.
    pub suspected_cycle: Vec<String>,
    /// Whether the online suspicion names only channels of the
    /// brute-force witness cycle: `Some(true)` when every suspected
    /// channel is a witness channel, `Some(false)` when the suspicion
    /// strayed, `None` when there was no witness or no trip to compare.
    pub watchdog_agrees: Option<bool>,
    /// The replay's packet journeys as Chrome Trace Event Format JSON
    /// (loadable in Perfetto / `chrome://tracing`).
    pub journey_json: String,
    /// The full recorder document (events + samples + totals) as JSON.
    pub trace_json: String,
    /// The replay's `sim_event` coverage contribution (the recorder's
    /// event totals by kind plus the outcome), merged into the campaign
    /// map when coverage tracking is on.
    pub sim_coverage: ebda_obs::CoverageMap,
}

/// A disagreement, its shrunk form, and the replay evidence.
#[derive(Debug, Clone)]
pub struct CaughtDisagreement {
    /// The artifact as generated.
    pub artifact: Artifact,
    /// The 1-minimal artifact that still disagrees.
    pub shrunk: Artifact,
    /// The violated rule, re-evaluated on the shrunk artifact.
    pub disagreement: Disagreement,
    /// Simulator replay of the shrunk artifact, when it was routable.
    pub replay: Option<Replay>,
}

/// Tallies and outcome of one campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Artifacts checked.
    pub configs: usize,
    /// Of which partitionings / channel orderings / random turn relations.
    pub partitionings: usize,
    /// Channel-ordering artifacts checked.
    pub orderings: usize,
    /// Random-turn-relation artifacts checked.
    pub random_turns: usize,
    /// Artifacts all four paths found deadlock-free.
    pub deadlock_free: usize,
    /// Artifacts with an agreed-on deadlock.
    pub deadlocking: usize,
    /// Partitioning artifacts EbDa accepted.
    pub ebda_accepted: usize,
    /// Artifacts whose full relation also satisfied Duato's connectivity.
    pub duato_connected: usize,
    /// Wall-clock milliseconds spent — excluded from [`fmt::Display`], so
    /// the report is byte-comparable across runs and thread counts.
    pub elapsed_ms: u128,
    /// Artifacts whose design-space bin was new to this campaign —
    /// new-coverage-per-artifact. Zero when coverage tracking is off.
    pub bin_opening_artifacts: usize,
    /// The merged coverage map, when the campaign tracked coverage
    /// (`coverage` path set or `coverage_guided` on).
    pub coverage: Option<ebda_obs::CoverageMap>,
    /// The first cross-check violation, if any.
    pub caught: Option<CaughtDisagreement>,
    /// Requested ledger or coverage files that could not be written; the
    /// tallies are complete regardless.
    pub write_errors: Vec<String>,
}

impl CampaignReport {
    /// Returns `true` when every artifact passed every cross-check.
    pub fn is_clean(&self) -> bool {
        self.caught.is_none()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "checked {} configurations ({} partitionings, {} orderings, {} random relations)",
            self.configs, self.partitionings, self.orderings, self.random_turns
        )?;
        write!(
            f,
            "verdicts: {} deadlock-free, {} deadlocking; {} EbDa-accepted, {} Duato-connected",
            self.deadlock_free, self.deadlocking, self.ebda_accepted, self.duato_connected
        )?;
        if let Some(map) = &self.coverage {
            write!(
                f,
                "\ncoverage: {} design-space bins ({} bin-opening artifacts), {} points total, digest {}",
                map.covered("design_bin"),
                self.bin_opening_artifacts,
                map.total_points(),
                map.digest()
            )?;
        }
        match &self.caught {
            None => write!(f, "\nall verdict paths agreed on every configuration"),
            Some(c) => {
                writeln!(f, "\nDISAGREEMENT {}", c.disagreement)?;
                writeln!(f, "  original: {}", c.artifact.summary())?;
                write!(f, "  shrunk:   {}", c.shrunk.summary())?;
                if let Some(r) = &c.replay {
                    write!(
                        f,
                        "\n  replay:   {}, {} wait-for edges recorded",
                        if r.deadlocked {
                            "deadlocked in the simulator"
                        } else {
                            "did not deadlock in the simulator"
                        },
                        r.wait_edges
                    )?;
                    for w in &r.wait_cycle {
                        write!(f, "\n    {w}")?;
                    }
                    if r.watchdog_trips > 0 {
                        write!(
                            f,
                            "\n  watchdog: tripped {}x online{}",
                            r.watchdog_trips,
                            match r.watchdog_agrees {
                                Some(true) => ", suspicion matches the brute-force witness",
                                Some(false) => ", suspicion STRAYS from the brute-force witness",
                                None => "",
                            }
                        )?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Runs a differential campaign (see the module docs). This is the entry
/// point everything else wraps: the `ebda oracle` command, the crate's
/// integration tests and the CI job all call it with different budgets.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let _p = ebda_obs::prof::phase("oracle/campaign");
    let mut stream = Stream {
        cfg,
        start: Instant::now(),
        generator: Generator::with_max_nodes(cfg.seed, cfg.max_nodes),
        seen_shapes: BTreeSet::new(),
        report: CampaignReport::default(),
    };
    let settings = Settings {
        threads: cfg.threads,
        mutation: cfg.mutation,
        shrink_budget: DEFAULT_SHRINK_BUDGET,
        check_phase: None,
        ledger: cfg.ledger.as_deref().map(|path| (path, "oracle", cfg.seed)),
        coverage: (cfg.coverage.is_some() || cfg.coverage_guided).then(|| {
            let key = format!("oracle-seed-{}-mutation-{}", cfg.seed, cfg.mutation);
            (key, cfg.coverage.as_deref())
        }),
    };
    let (coverage, write_errors) = campaign::run(&settings, &mut stream);
    let report = &mut stream.report;
    report.coverage = coverage;
    report.write_errors = write_errors;
    report.elapsed_ms = stream.start.elapsed().as_millis();
    stream.report
}

/// The generator stream as a campaign source: every artifact is held to
/// [`Expectation::Agreement`], and the first violation ends the campaign.
struct Stream<'a> {
    cfg: &'a CampaignConfig,
    start: Instant,
    generator: Generator,
    /// Shape bins seen at generation time, which guided mode steers by.
    seen_shapes: BTreeSet<String>,
    report: CampaignReport,
}

impl Source for Stream<'_> {
    fn next_batch(&mut self) -> Option<Vec<(Artifact, Expectation, String)>> {
        // Artifacts are generated sequentially from the deterministic
        // stream and checked in parallel batches. The batch size is a
        // constant (never derived from the thread count) because it shapes
        // how a budget-bound campaign rounds off.
        const BATCH: usize = 16;
        // How many candidates a guided slot may draw before settling:
        // enough to skip well-trodden shapes, bounded so generation stays
        // cheap.
        const GUIDED_DRAWS: usize = 6;
        let (cfg, checked) = (self.cfg, self.report.configs);
        let over_budget = self.start.elapsed() >= cfg.budget;
        if (over_budget && checked >= cfg.min_configs) || checked >= cfg.max_configs {
            return None;
        }
        let mut n = BATCH.min(cfg.max_configs - checked);
        if over_budget {
            // Only the min-configs floor keeps us going: stop exactly at
            // it, as config-count-bound determinism tests require.
            n = n.min(cfg.min_configs - checked);
        }
        let _p = ebda_obs::prof::phase("oracle/generate");
        ebda_obs::prof::work("oracle/generate", "artifacts", n as u64);
        let batch = (0..n).map(|_| {
            let mut pick = self.generator.next_artifact();
            if cfg.coverage_guided {
                // Rejection-sample the stream toward unseen shape bins.
                // Generation stays sequential, so this is seed-deterministic
                // and thread-count-independent.
                let mut draws = 1;
                while draws < GUIDED_DRAWS
                    && self
                        .seen_shapes
                        .contains(&crate::coverage::shape_bin(&pick))
                {
                    pick = self.generator.next_artifact();
                    draws += 1;
                }
                self.seen_shapes.insert(crate::coverage::shape_bin(&pick));
            }
            let name = pick.summary();
            (pick, Expectation::Agreement, name)
        });
        Some(batch.collect())
    }

    fn tally(&mut self, _: usize, artifact: &Artifact, verdicts: &Verdicts, new_bin: bool) {
        let report = &mut self.report;
        report.configs += 1;
        ebda_obs::prof::work("oracle/campaign", "artifacts_checked", 1);
        match artifact.kind {
            ArtifactKind::Partitioning => report.partitionings += 1,
            ArtifactKind::ChannelOrdering => report.orderings += 1,
            ArtifactKind::RandomTurns => report.random_turns += 1,
        }
        if verdicts.brute.is_deadlock_free() {
            report.deadlock_free += 1;
        } else {
            report.deadlocking += 1;
            ebda_obs::prof::work("oracle/campaign", "deadlocking", 1);
        }
        if verdicts.ebda.as_ref().is_some_and(|e| e.is_deadlock_free()) {
            report.ebda_accepted += 1;
        }
        if verdicts.duato.escape_connected {
            report.duato_connected += 1;
        }
        report.bin_opening_artifacts += usize::from(new_bin);
    }

    /// Replays the shrunk disagreement; its `sim_event` coverage joins the
    /// campaign map.
    fn caught(
        &mut self,
        _: usize,
        artifact: &Artifact,
        _: Violation,
        shrunk: Artifact,
        coverage: Option<&mut ebda_obs::CoverageMap>,
    ) -> ControlFlow<()> {
        ebda_obs::prof::work("oracle/campaign", "disagreements", 1);
        let cfg = self.cfg;
        let disagreement = cross_check(&shrunk, &evaluate(&shrunk, cfg.mutation))
            .expect("the shrinker only keeps artifacts that still disagree");
        let journeys = JourneyConfig {
            sample_rate: cfg.journey_sample_rate,
            ..JourneyConfig::default()
        };
        let replay = {
            let _p = ebda_obs::prof::phase("oracle/replay");
            replay_artifact(&shrunk, cfg.seed, journeys)
        };
        if let (Some(map), Some(replay)) = (coverage, &replay) {
            map.merge(&replay.sim_coverage);
        }
        self.report.caught = Some(CaughtDisagreement {
            artifact: artifact.clone(),
            shrunk,
            disagreement,
            replay,
        });
        ControlFlow::Break(())
    }
}

/// Drives packets along a brute-force witness cycle, U-turns and all.
///
/// Shortest-path routing never exercises a dependency that only appears on
/// non-minimal walks (a U-turn cycle, say), so a structural witness can be
/// invisible to ordinary traffic. This relation makes any witness concrete:
/// a packet injected at cycle position `i` claims channel `i` and then
/// requests channel `i + 1` — exactly the hold-and-wait pattern of the
/// configuration the searcher found. Destinations are chosen off the cycle,
/// so walker packets never eject and sustained injection must wedge.
struct WitnessWalker {
    universe: Vec<ebda_core::Channel>,
    cycle: Vec<BruteChannel>,
}

impl RoutingRelation for WitnessWalker {
    fn name(&self) -> &str {
        "witness-walker"
    }

    fn universe(&self) -> &[ebda_core::Channel] {
        &self.universe
    }

    fn route(
        &self,
        _topo: &ebda_cdg::topology::Topology,
        node: usize,
        state: RouteState,
        _src: usize,
        _dst: usize,
    ) -> Vec<RouteChoice> {
        let l = self.cycle.len();
        let choice = |i: usize| RouteChoice {
            port: PortVc {
                dim: self.cycle[i].dim,
                dir: self.cycle[i].dir,
                vc: self.cycle[i].vc,
            },
            state: i as RouteState,
        };
        if state == INJECT {
            (0..l)
                .filter(|&i| self.cycle[i].from == node)
                .map(choice)
                .collect()
        } else {
            let j = (state as usize + 1) % l;
            if self.cycle[j].from == node {
                vec![choice(j)]
            } else {
                Vec::new()
            }
        }
    }
}

/// Replays an artifact through the wormhole simulator with a flight
/// recorder attached. When the brute searcher finds a witness cycle, the
/// replay drives packets along it (see `WitnessWalker`); otherwise it
/// floods the artifact's own relation with burst traffic, which a
/// deadlock-free design drains cleanly. The run carries a journey tracer
/// (`journeys` controls its sampling) and an online stall watchdog whose
/// suspected wait cycle is cross-checked against the brute-force witness
/// (see [`Replay::watchdog_agrees`]). Returns `None` when there is
/// nothing to simulate (empty universe, or no routable pair).
pub fn replay_artifact(artifact: &Artifact, seed: u64, journeys: JourneyConfig) -> Option<Replay> {
    /// One scripted packet: (injection cycle, source node, destination node).
    type Injection = (u64, usize, usize);
    if artifact.universe.is_empty() {
        return None;
    }
    let topo = artifact.topology();
    let brute = crate::brute::search(&topo, &artifact.vcs, &artifact.universe, &artifact.turns);
    let witness = brute.witness.clone();
    let (relation, events): (Box<dyn RoutingRelation>, Vec<Injection>) = match brute.witness {
        Some(cycle) => {
            // One packet per cycle position, all injected in the same
            // instant so every channel of the circular wait is claimed
            // at once; repeated rounds re-pressure partial wedges.
            // Destinations sit off the cycle (walker packets must
            // never eject), falling back to any node that is neither
            // the source nor the first hop.
            let off_cycle =
                (0..topo.node_count()).find(|n| !cycle.iter().any(|c| c.from == *n || c.to == *n));
            let mut events = Vec::new();
            for round in 0..10u64 {
                for c in &cycle {
                    let dst = off_cycle
                        .or_else(|| (0..topo.node_count()).find(|&n| n != c.from && n != c.to))?;
                    events.push((round * 25, c.from, dst));
                }
            }
            let walker = WitnessWalker {
                universe: artifact.universe.clone(),
                cycle,
            };
            (Box::new(walker), events)
        }
        None => {
            // No structural deadlock: flood the artifact's own relation
            // with rounds of simultaneous all-pairs bursts, the most
            // wedge-prone traffic shape (in steady flow, in-network
            // heads outrank fresh injections at VC allocation, so only
            // simultaneous claims on idle channels could ever close a
            // cycle). A sound deadlock-free verdict drains every round.
            let routing = TurnRouting::new(
                "oracle-replay",
                artifact.universe.clone(),
                artifact.turns.clone(),
            );
            let n = topo.node_count();
            let mut pool = Vec::new();
            let mut short = Vec::new();
            for src in 0..n {
                for dst in 0..n {
                    match (src != dst).then(|| routing.legal_distance(&topo, src, INJECT, dst)) {
                        Some(Some(d)) if d >= 2 => pool.push((src, dst)),
                        Some(Some(_)) => short.push((src, dst)),
                        _ => {}
                    }
                }
            }
            // Prefer multi-hop pairs: only a wormhole spanning several
            // channels can hold one while waiting for another.
            if pool.is_empty() {
                pool = short;
            }
            if pool.is_empty() {
                return None;
            }
            let mut rng = Rng64::new(seed ^ 0x0ACC1E);
            let mut events = Vec::new();
            const ROUNDS: u64 = 12;
            const ROUND_GAP: u64 = 100;
            const BURST_CAP: usize = 128;
            for round in 0..ROUNDS {
                let mut order: Vec<usize> = (0..pool.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_index(i + 1));
                }
                order.truncate(BURST_CAP);
                for &k in &order {
                    let (src, dst) = pool[k];
                    events.push((round * ROUND_GAP, src, dst));
                }
            }
            (Box::new(routing), events)
        }
    };
    let sim_cfg = SimConfig {
        traffic: TrafficPattern::trace(events),
        packet_length: 8,
        buffer_depth: 2,
        buffer_policy: BufferPolicy::MultiPacket,
        warmup: 0,
        measurement: 2_000,
        drain: 1_000,
        deadlock_threshold: 300,
        watchdog_window: 150,
        seed,
        ..SimConfig::default()
    };
    let mut recorder = Recorder::new(RecorderConfig::default());
    recorder.enable_journeys(journeys);
    let result = noc_sim::simulate_traced(&topo, relation.as_ref(), &sim_cfg, Some(&mut recorder));
    let sim_coverage = crate::coverage::replay_coverage(&result, &recorder);
    let watchdog_agrees = witness
        .as_ref()
        .filter(|_| !result.suspected_cycle.is_empty())
        .map(|cycle| {
            result
                .suspected_cycle
                .iter()
                .flat_map(|e| e.channels())
                .all(|coord| cycle.iter().any(|c| coord_matches_witness(coord, c)))
        });
    let mut journeys = TraceBuilder::new();
    journeys.add_run(
        &format!("oracle replay of {}", relation.name()),
        recorder.journeys().expect("replay journeys attached"),
    );
    let (deadlocked, wait_cycle) = match result.outcome {
        Outcome::Deadlocked { wait_cycle, .. } => (true, wait_cycle),
        Outcome::Completed => (false, Vec::new()),
    };
    Some(Replay {
        deadlocked,
        wait_cycle,
        wait_edges: wait_edge_count(&recorder),
        sim_coverage,
        watchdog_trips: result.watchdog_trips,
        suspected_cycle: result
            .suspected_cycle
            .iter()
            .map(|e| e.label.clone())
            .collect(),
        watchdog_agrees,
        journey_json: journeys.finish(),
        trace_json: recorder.write_json(),
    })
}

/// The wait-for edges of the recorder's *final* diagnosis: those
/// recorded after the last watchdog event. The online watchdog records
/// a suspicion batch at every trip and a deadlocked run one more, its
/// post-mortem; only the last batch counts. (A run that completed after
/// a trip still counts its last suspicion, where
/// `SimResult::final_wait_edges` is empty.)
fn wait_edge_count(recorder: &Recorder) -> usize {
    recorder.events().fold(0, |count, e| match e.kind() {
        EventKind::Watchdog => 0,
        EventKind::WaitFor => count + 1,
        _ => count,
    })
}

/// Whether an online-watchdog channel coordinate names the same concrete
/// channel as a brute-force witness entry. The two sides use different
/// vocabularies: the simulator's [`ChannelCoord`] is anchored at the
/// holding node with a 0-based VC, the oracle's [`BruteChannel`] is a
/// `from → to` link with a 1-based VC.
fn coord_matches_witness(coord: ChannelCoord, c: &BruteChannel) -> bool {
    coord.node == c.from
        && usize::from(coord.dim) == c.dim.index()
        && coord.dir
            == if c.dir == ebda_core::Direction::Plus {
                '+'
            } else {
                '-'
            }
        && c.vc >= 1
        && coord.vc == c.vc - 1
}

#[cfg(test)]
#[path = "../../obs/tests/chrome_check/mod.rs"]
mod chrome_check;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mutation: Mutation) -> CampaignConfig {
        CampaignConfig {
            seed: 7,
            budget: Duration::ZERO,
            min_configs: 30,
            max_configs: 600,
            max_nodes: 16,
            mutation,
            journey_sample_rate: 1.0,
            threads: 0,
            ledger: None,
            coverage: None,
            coverage_guided: false,
        }
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        // A config-count-bound campaign (budget 0) must report the same
        // bytes at any thread count: same stream, same batches, same
        // order. A guided campaign tracks coverage without a file, so the
        // report also carries the bin-opening count and the map digest.
        let report = |threads| {
            let cfg = CampaignConfig {
                threads,
                coverage_guided: true,
                ..quick(Mutation::None)
            };
            run_campaign(&cfg).to_string()
        };
        let serial = report(1);
        assert!(serial.contains("bin-opening artifacts"), "{serial}");
        assert_eq!(serial, report(8));
    }

    #[test]
    fn campaign_summary_is_thread_count_invariant() {
        // A config-count-bound campaign (budget 0) must tally identically
        // at any thread count: same stream, same batches, same order.
        let serial = run_campaign(&CampaignConfig {
            threads: 1,
            ..quick(Mutation::None)
        });
        let parallel = run_campaign(&CampaignConfig {
            threads: 8,
            ..quick(Mutation::None)
        });
        assert_eq!(serial.configs, parallel.configs);
        assert_eq!(serial.partitionings, parallel.partitionings);
        assert_eq!(serial.orderings, parallel.orderings);
        assert_eq!(serial.random_turns, parallel.random_turns);
        assert_eq!(serial.deadlock_free, parallel.deadlock_free);
        assert_eq!(serial.deadlocking, parallel.deadlocking);
        assert_eq!(serial.ebda_accepted, parallel.ebda_accepted);
        assert_eq!(serial.duato_connected, parallel.duato_connected);
        assert!(serial.is_clean() && parallel.is_clean());
    }

    #[test]
    fn coverage_map_is_byte_identical_across_thread_counts() {
        // The tentpole determinism claim: per-artifact maps are
        // extracted in parallel but merged in stream order, so the
        // campaign map's canonical JSON is identical at --threads 1/8.
        let with_coverage = |threads| {
            let mut path = std::env::temp_dir();
            path.push(format!("ebda-oracle-cov-t{threads}-{}", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let report = run_campaign(&CampaignConfig {
                threads,
                coverage: Some(path.clone()),
                ..quick(Mutation::None)
            });
            let on_disk = std::fs::read_to_string(&path).expect("map written");
            let _ = std::fs::remove_file(&path);
            (report, on_disk)
        };
        let (serial, serial_bytes) = with_coverage(1);
        let (parallel, parallel_bytes) = with_coverage(8);
        assert_eq!(serial_bytes, parallel_bytes, "coverage files must match");
        let (sm, pm) = (serial.coverage.unwrap(), parallel.coverage.unwrap());
        assert_eq!(sm.to_json(), pm.to_json());
        assert_eq!(sm.diff(&pm), None);
        assert_eq!(serial.bin_opening_artifacts, parallel.bin_opening_artifacts);
        // The written file is the report's map plus a newline.
        assert_eq!(serial_bytes, sm.to_json() + "\n");
        // Every non-sim family is fed even by a 30-artifact campaign.
        for family in [
            "cdg_edge",
            "turn_admitted",
            "turn_denied",
            "obligation",
            "escape_drain",
            "gfp_pair",
            "design_bin",
        ] {
            assert!(sm.covered(family) > 0, "family {family} empty");
        }
    }

    #[test]
    fn guided_campaign_reaches_more_bins_at_equal_budget() {
        // The acceptance claim: at the same checked-artifact budget, the
        // coverage-guided stream must reach strictly more design-space
        // bins than blind sampling from the same seed.
        let base = CampaignConfig {
            min_configs: 60,
            max_configs: 60,
            ..quick(Mutation::None)
        };
        let blind = run_campaign(&CampaignConfig {
            coverage_guided: false,
            coverage: Some(
                std::env::temp_dir().join(format!("ebda-oracle-blind-{}", std::process::id())),
            ),
            ..base.clone()
        });
        let guided = run_campaign(&CampaignConfig {
            coverage_guided: true,
            ..base
        });
        let _ = std::fs::remove_file(
            std::env::temp_dir().join(format!("ebda-oracle-blind-{}", std::process::id())),
        );
        assert_eq!(blind.configs, guided.configs, "equal artifact budget");
        let blind_bins = blind.coverage.as_ref().unwrap().covered("design_bin");
        let guided_bins = guided.coverage.as_ref().unwrap().covered("design_bin");
        assert!(
            guided_bins > blind_bins,
            "guided must beat blind: {guided_bins} vs {blind_bins}"
        );
        // Guided runs track coverage even with no output path, and the
        // report narrates it.
        assert!(guided.to_string().contains("design-space bins"));
        // Determinism: the guided stream is a pure function of the seed.
        let again = run_campaign(&CampaignConfig {
            coverage_guided: true,
            min_configs: 60,
            max_configs: 60,
            ..quick(Mutation::None)
        });
        assert_eq!(
            again.coverage.as_ref().unwrap().to_json(),
            guided.coverage.as_ref().unwrap().to_json()
        );
    }

    #[test]
    fn small_clean_campaign_reports_tallies() {
        let report = run_campaign(&quick(Mutation::None));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.configs, 30);
        assert_eq!(
            report.partitionings + report.orderings + report.random_turns,
            report.configs
        );
        assert_eq!(report.deadlock_free + report.deadlocking, report.configs);
        assert!(report.deadlock_free > 0);
        assert!(report.deadlocking > 0);
        let text = report.to_string();
        assert!(text.contains("all verdict paths agreed"));
    }

    #[test]
    fn replay_of_a_wrap_ring_deadlocks_with_wait_edges() {
        // A one-way wrap ring — the shape the shrinker reduces torus
        // counterexamples to. Two-hop packets must traverse two ring
        // channels, so flooding closes the circular wait.
        let artifact = Artifact {
            id: 0,
            kind: ArtifactKind::ChannelOrdering,
            radix: vec![3, 3],
            wrap: vec![true, false],
            vcs: vec![1, 1],
            universe: ebda_core::parse_channels("X+").unwrap(),
            turns: ebda_core::TurnSet::new(),
            design: None,
        };
        let replay =
            replay_artifact(&artifact, 7, JourneyConfig::default()).expect("rings are routable");
        assert!(replay.deadlocked, "a flooded wrap ring must deadlock");
        assert!(replay.wait_cycle.len() >= 2);
        assert_eq!(replay.wait_edges, replay.wait_cycle.len());
        assert!(replay.trace_json.contains("\"events\""));

        // The online watchdog tripped before the hard verdict and its
        // suspected cycle stayed inside the brute-force witness — the
        // live/offline cross-check of the tracing subsystem.
        assert!(replay.watchdog_trips >= 1, "online watchdog must trip");
        assert!(!replay.suspected_cycle.is_empty());
        assert_eq!(
            replay.watchdog_agrees,
            Some(true),
            "suspicion must match the witness: {:?}",
            replay.suspected_cycle
        );

        // The journey export is a valid Chrome trace with flow events.
        let summary =
            chrome_check::validate(&replay.journey_json).expect("valid Trace Event Format");
        assert!(summary.complete > 0);
        assert!(summary.flows > 0, "hop-linking flow events expected");
    }

    #[test]
    fn unroutable_artifacts_are_not_replayed() {
        let artifact = Artifact {
            id: 0,
            kind: ArtifactKind::RandomTurns,
            radix: vec![3, 3],
            wrap: vec![false, false],
            vcs: vec![1, 1],
            universe: Vec::new(),
            turns: ebda_core::TurnSet::new(),
            design: None,
        };
        assert!(replay_artifact(&artifact, 7, JourneyConfig::default()).is_none());
    }

    /// Runs `relation` on a 4x4 mesh under `cfg` with a recorder whose
    /// journeys are on, as [`replay_artifact`] does.
    fn recorded(relation: &TurnRouting, cfg: &SimConfig) -> (noc_sim::SimResult, Recorder) {
        let mut recorder = Recorder::new(RecorderConfig::default());
        recorder.enable_journeys(JourneyConfig::default());
        let topo = ebda_routing::Topology::mesh(&[4, 4]);
        let result = noc_sim::simulate_traced(&topo, relation, cfg, Some(&mut recorder));
        (result, recorder)
    }

    /// Every turn on one VC, cyclic by construction, under traffic that
    /// wedges it within a few hundred cycles: `(relation, config)`.
    fn positive_control(watchdog_window: u64) -> (TurnRouting, SimConfig) {
        let universe = ebda_core::parse_channels("X+ X- Y+ Y-").unwrap();
        let turns = universe
            .iter()
            .flat_map(|&a| universe.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| ebda_core::Turn::new(a, b))
            .collect();
        let cfg = SimConfig {
            injection_rate: 0.5,
            packet_length: 8,
            buffer_depth: 2,
            warmup: 0,
            measurement: 4_000,
            drain: 0,
            deadlock_threshold: 300,
            watchdog_window,
            traffic: TrafficPattern::Uniform,
            ..SimConfig::default()
        };
        (TurnRouting::new("all-turns", universe, turns), cfg)
    }

    #[test]
    fn only_the_final_diagnosis_batch_is_counted() {
        // With the online watchdog on, suspicion batches are recorded
        // before the hard deadlock's post-mortem; the count is still
        // the final wait cycle's length.
        for window in [0, 100] {
            let (relation, cfg) = positive_control(window);
            let (result, recorder) = recorded(&relation, &cfg);
            let Outcome::Deadlocked { wait_cycle, .. } = &result.outcome else {
                panic!("positive control must deadlock, got {:?}", result.outcome);
            };
            assert!(wait_cycle.len() >= 2);
            assert_eq!(result.watchdog_trips >= 1, window > 0, "window {window}");
            assert_eq!(wait_edge_count(&recorder), wait_cycle.len());
            let tracer = recorder.journeys().expect("journeys attached");
            assert!(!tracer.journeys().is_empty());
            assert!(
                !tracer.wait_notes().is_empty(),
                "watchdog edges must reach the journey tracer"
            );
        }
    }

    #[test]
    fn a_clean_run_records_no_wait_edges() {
        let relation = TurnRouting::from_design("xy", &ebda_core::catalog::p1_xy()).unwrap();
        let cfg = SimConfig {
            injection_rate: 0.05,
            warmup: 0,
            measurement: 500,
            drain: 500,
            ..SimConfig::default()
        };
        let (result, recorder) = recorded(&relation, &cfg);
        assert!(result.outcome.is_deadlock_free());
        assert_eq!(wait_edge_count(&recorder), 0);
        let map = crate::coverage::replay_coverage(&result, &recorder);
        let points: Vec<_> = map.points("sim_event").collect();
        assert!(points.iter().all(|&(p, _)| p != "wait_for"));
        assert!(points.contains(&("outcome/completed", 1)));
    }

    #[test]
    fn sim_event_holds_the_event_kinds_and_the_outcome() {
        let (relation, cfg) = positive_control(0);
        let (result, recorder) = recorded(&relation, &cfg);
        let map = crate::coverage::replay_coverage(&result, &recorder);
        let hits = |point: &str| {
            let mut points = map.points("sim_event");
            points.find(|&(p, _)| p == point).map_or(0, |(_, n)| n)
        };
        assert!(hits("inject") > 0);
        for kind in EventKind::ALL {
            assert_eq!(hits(kind.name()), recorder.total(kind), "{}", kind.name());
        }
        assert_eq!(hits("outcome/deadlocked"), 1);
        assert_eq!(hits("outcome/completed"), 0);
    }
}
