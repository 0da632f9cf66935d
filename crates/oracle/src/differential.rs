//! The differential campaign: generate, cross-check, shrink, replay.
//!
//! [`run_campaign`] is the oracle's single entry point, shared by the
//! `ebda oracle` command, the integration tests and CI: it draws artifacts
//! from the deterministic [`Generator`] stream,
//! pushes each through all four verdict paths, and stops loudly at the
//! first cross-check violation — which it then minimizes with
//! [`shrink`] and replays through the wormhole simulator with a
//! flight recorder attached, so the abstract disagreement arrives as a
//! concrete, watchable wait cycle.

use crate::artifact::{Artifact, ArtifactKind, Generator};
use crate::brute::BruteChannel;
use crate::shrink::{shrink, DEFAULT_SHRINK_BUDGET};
use crate::verdict::{cross_check, evaluate, Disagreement, Evaluation, Mutation};
use ebda_obs::{JourneyConfig, Rng64, TraceBuilder};
use ebda_routing::{PortVc, RouteChoice, RouteState, RoutingRelation, TurnRouting, INJECT};
use noc_sim::{
    replay_traced, wait_edge_count, BufferPolicy, ChannelCoord, Outcome, SimConfig, TrafficPattern,
};
use std::fmt;
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
    /// The replay's `sim_event` coverage contribution (see
    /// [`noc_sim::replay_coverage`]), merged into the campaign map when
    /// coverage tracking is on.
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
    /// Wall-clock milliseconds spent.
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
            "checked {} configurations in {} ms ({} partitionings, {} orderings, {} random relations)",
            self.configs, self.elapsed_ms, self.partitionings, self.orderings, self.random_turns
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
    let start = Instant::now();
    let threads = if cfg.threads == 0 {
        ebda_par::threads()
    } else {
        cfg.threads
    };
    // Artifacts are generated sequentially from the deterministic stream,
    // then checked in parallel batches; tallies and the first-disagreement
    // scan walk the batch in stream order, so the report is independent of
    // the thread count. The batch size is a constant (never derived from
    // `threads`) because it shapes how a budget-bound campaign rounds off.
    const BATCH: usize = 16;
    let mut generator = Generator::with_max_nodes(cfg.seed, cfg.max_nodes);
    let mut report = CampaignReport::default();
    let git_rev = cfg.ledger.as_ref().map(|_| ebda_obs::ledger::git_rev());
    let mut records: Vec<ebda_obs::LedgerRecord> = Vec::new();
    let with_coverage = cfg.coverage.is_some() || cfg.coverage_guided;
    let mut coverage_map = with_coverage.then(|| {
        ebda_obs::CoverageMap::new(format!(
            "oracle-seed-{}-mutation-{}",
            cfg.seed, cfg.mutation
        ))
    });
    // Shape bins seen at *generation* time (guided mode steers by these)
    // and design bins seen at *tally* time (new-coverage-per-artifact).
    let mut seen_shapes: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut seen_bins: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    // How many candidates a guided slot may draw before settling: enough
    // to skip well-trodden shapes, bounded so generation stays cheap.
    const GUIDED_DRAWS: usize = 6;
    'campaign: while (start.elapsed() < cfg.budget || report.configs < cfg.min_configs)
        && report.configs < cfg.max_configs
    {
        let mut n = BATCH.min(cfg.max_configs - report.configs);
        if start.elapsed() >= cfg.budget {
            // Only the min-configs floor keeps us going: stop exactly at
            // it, like the serial per-artifact loop did (and like
            // config-count-bound determinism tests require).
            n = n.min(cfg.min_configs - report.configs);
        }
        let artifacts: Vec<Artifact> = {
            let _p = ebda_obs::prof::phase("oracle/generate");
            ebda_obs::prof::work("oracle/generate", "artifacts", n as u64);
            (0..n)
                .map(|_| {
                    if !cfg.coverage_guided {
                        return generator.next_artifact();
                    }
                    // Guided: rejection-sample the stream toward unseen
                    // shape bins. Generation stays sequential on the
                    // coordinator, so this is seed-deterministic and
                    // thread-count-independent.
                    let mut pick = generator.next_artifact();
                    let mut draws = 1;
                    while draws < GUIDED_DRAWS
                        && seen_shapes.contains(&crate::coverage::shape_bin(&pick))
                    {
                        pick = generator.next_artifact();
                        draws += 1;
                    }
                    seen_shapes.insert(crate::coverage::shape_bin(&pick));
                    pick
                })
                .collect()
        };
        let with_provenance = cfg.ledger.is_some();
        let batch = ebda_par::parallel_map(threads, &artifacts, |_, a| {
            let e = Evaluation::of(a, cfg.mutation);
            let prov = with_provenance.then(|| e.provenance());
            let cov = with_coverage.then(|| e.coverage());
            (e.verdicts, prov, cov)
        });
        for (artifact, (verdicts, prov, cov)) in artifacts.iter().zip(&batch) {
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
            if let (Some(map), Some(cov)) = (coverage_map.as_mut(), cov) {
                // Merged in stream order on the coordinator, so the map
                // is byte-identical at any thread count.
                map.merge(cov);
                // An artifact's map holds its design bin as the one
                // point of that family.
                let bin = cov.points("design_bin").next().map(|(bin, _)| bin);
                if bin.is_some_and(|bin| !seen_bins.contains(bin)) {
                    seen_bins.extend(bin.map(str::to_string));
                    report.bin_opening_artifacts += 1;
                }
            }
            if let Some(prov) = prov {
                // Records are assembled in stream order so the ledger's
                // bytes never depend on the thread count.
                records.push(prov.ledger_record(
                    "oracle",
                    artifact.summary(),
                    git_rev.clone().unwrap_or_default(),
                    cfg.seed,
                    cov.as_ref(),
                ));
            }
            if cross_check(artifact, verdicts).is_some() {
                ebda_obs::prof::work("oracle/campaign", "disagreements", 1);
                report.caught = Some(investigate(artifact, cfg));
                // Later artifacts of this batch were checked speculatively;
                // they are not tallied, exactly as if never generated.
                break 'campaign;
            }
        }
    }
    if let Some(path) = &cfg.ledger {
        // The break-on-disagreement path lands here too: everything tallied
        // before the disagreement is persisted.
        if let Err(e) = ebda_obs::ledger::append(path, &records) {
            report.write_errors.push(format!("ledger append: {e}"));
        }
    }
    if let Some(map) = &mut coverage_map {
        // A caught disagreement was replayed through the simulator: its
        // sim_event coverage belongs to the campaign map too.
        if let Some(replay) = report.caught.as_ref().and_then(|c| c.replay.as_ref()) {
            map.merge(&replay.sim_coverage);
        }
        map.publish_metrics();
        if let Some(path) = &cfg.coverage {
            if let Err(e) = map.write_file(path) {
                report.write_errors.push(format!("coverage write: {e}"));
            }
        }
        report.coverage = coverage_map;
    }
    report.elapsed_ms = start.elapsed().as_millis();
    report
}

/// Shrinks a disagreeing artifact and replays the result.
fn investigate(artifact: &Artifact, cfg: &CampaignConfig) -> CaughtDisagreement {
    let shrunk = {
        let _p = ebda_obs::prof::phase("oracle/shrink");
        let still_disagrees = |c: &Artifact| cross_check(c, &evaluate(c, cfg.mutation)).is_some();
        shrink(artifact, still_disagrees, DEFAULT_SHRINK_BUDGET)
    };
    let verdicts = evaluate(&shrunk, cfg.mutation);
    let disagreement = cross_check(&shrunk, &verdicts)
        .expect("the shrinker only keeps artifacts that still disagree");
    let journeys = JourneyConfig {
        sample_rate: cfg.journey_sample_rate,
        ..JourneyConfig::default()
    };
    let replay = {
        let _p = ebda_obs::prof::phase("oracle/replay");
        replay_artifact(&shrunk, cfg.seed, journeys)
    };
    CaughtDisagreement {
        artifact: artifact.clone(),
        shrunk,
        disagreement,
        replay,
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
    let (result, recorder) = replay_traced(&topo, relation.as_ref(), &sim_cfg, Some(journeys));
    let sim_coverage = noc_sim::replay_coverage(&result, &recorder);
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
}
