//! `verify-scale`: time to a verdict as the network grows.
//!
//! The cdg and core crates do the work, on a few large graphs; the
//! simulator does none and the only I/O is one small ledger. Two kinds
//! of cell, one operation (= one verdict) each:
//!
//! * **four-path cells** walk the `ebda verify --ledger` + `ebda
//!   check-cert` path — `oracle::evaluate`, `cross_check`, provenance,
//!   ledger append, then parse and re-check of every certificate or
//!   witness — for {xy, west-first, odd-even, dyxy (2 VCs), the
//!   dateline torus} x radix {4, 6, 8}, plus four deadlocking cells
//!   (dateline stripped on the 4/6/8 tori, every turn allowed on a 6x6
//!   mesh) whose witness must check. Duato's connectivity BFS is
//!   super-linear in nodes (0.6 s at radix 16), hence radix <= 8 here.
//! * **plain cells** walk the `ebda verify` path — `cdg::verify_design`
//!   plus `dally::channel_ordering` — for seven 2D catalog designs and
//!   the dateline torus at radix {16, 32}, and for Algorithm 1
//!   partitionings of VC budgets {1,1,1}, {2,2,2}, {1,2,3} on 3D meshes
//!   of radix {4, 8}: the CDG build/cycle scaling axis.
//!
//! Every cell's verdict is known beforehand. Nothing here is generated
//! or simulated, so the seed changes nothing: every run verifies the
//! same catalog, in the same order.

use super::pipeline::{
    check_ledger, evaluate_traced, evidence_traced, ledger_record, TempFile, CDG_NAMES,
};
use crate::harness::{Checks, Digest, Outcome, Workload};
use crate::trace::{Metrics, Trace, Tracer};
use ebda_cdg::dally::{channel_ordering, design_universe, infer_vcs, verify_design};
use ebda_cdg::{Cdg, Topology};
use ebda_core::algorithm1::partition_network;
use ebda_core::{catalog, extract_turns, Dimension, PartitionSeq};
use ebda_oracle::artifact::naive_turns;
use ebda_oracle::{evaluate, Artifact, ArtifactKind, Mutation};

pub struct VerifyScale;

enum Kind {
    /// All four verdict paths with evidence, then `check-cert`.
    FourPath(Box<Artifact>),
    /// `verify_design` + `channel_ordering` of a given design.
    Plain(PartitionSeq),
    /// Algorithm 1 on a VC budget, then as `Plain`.
    Algorithm1(Vec<u8>),
}

struct Cell {
    name: String,
    radix: usize,
    topo: Topology,
    kind: Kind,
    expect_free: bool,
}

pub struct Inputs {
    cells: Vec<Cell>,
    ledger: TempFile,
}

/// What one cell answered, digested in cell order.
struct Answer {
    free: bool,
    channels: usize,
    dependencies: usize,
    /// Length of the channel ordering (plain cells).
    ordering: usize,
}

fn four_path_artifact(id: usize, topo: &Topology, seq: PartitionSeq, valid: bool) -> Artifact {
    let universe = seq.channels();
    let turns = if valid {
        extract_turns(&seq)
            .expect("catalog designs are valid")
            .into_turn_set()
    } else {
        naive_turns(&seq)
    };
    Artifact {
        id: id as u64,
        kind: ArtifactKind::Partitioning,
        radix: topo.radix().to_vec(),
        wrap: (0..topo.dims())
            .map(|d| topo.wraps(Dimension::new(d as u8)))
            .collect(),
        vcs: infer_vcs(&universe, topo.dims()),
        universe,
        turns,
        design: Some(seq),
    }
}

fn cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    let mut four_path = |name: String, topo: Topology, seq, valid, expect_free| {
        let artifact = four_path_artifact(cells.len(), &topo, seq, valid);
        cells.push(Cell {
            name,
            radix: topo.radix()[0],
            topo,
            kind: Kind::FourPath(Box::new(artifact)),
            expect_free,
        });
    };
    for r in [4, 6, 8] {
        let mesh = Topology::mesh(&[r, r]);
        for (name, seq) in [
            ("xy", catalog::p1_xy()),
            ("west-first", catalog::p3_west_first()),
            ("odd-even", catalog::odd_even()),
            ("dyxy", catalog::fig7b_dyxy()),
        ] {
            four_path(format!("4p/{name}/mesh{r}"), mesh.clone(), seq, true, true);
        }
        let torus = Topology::torus(&[r, r]);
        four_path(
            format!("4p/dateline/torus{r}"),
            torus.clone(),
            catalog::torus_dateline(&[r, r]),
            true,
            true,
        );
        // Dimension order without the dateline: EbDa still accepts (its
        // guarantee is mesh-only) and the wrap rings deadlock.
        four_path(
            format!("4p/stripped/torus{r}"),
            torus,
            catalog::p1_xy(),
            true,
            false,
        );
    }
    four_path(
        "4p/all-turns/mesh6".into(),
        Topology::mesh(&[6, 6]),
        PartitionSeq::parse("X+ X- Y+ Y-").expect("parses"),
        false,
        false,
    );

    for r in [16, 32] {
        let mesh = Topology::mesh(&[r, r]);
        for (name, seq) in [
            ("xy", catalog::p1_xy()),
            ("west-first", catalog::p3_west_first()),
            ("negative-first", catalog::p4_negative_first()),
            ("north-last", catalog::north_last()),
            ("odd-even", catalog::odd_even()),
            ("dyxy", catalog::fig7b_dyxy()),
            ("fig7c", catalog::fig7c()),
        ] {
            cells.push(Cell {
                name: format!("plain/{name}/mesh{r}"),
                radix: r,
                topo: mesh.clone(),
                kind: Kind::Plain(seq),
                expect_free: true,
            });
        }
        cells.push(Cell {
            name: format!("plain/dateline/torus{r}"),
            radix: r,
            topo: Topology::torus(&[r, r]),
            kind: Kind::Plain(catalog::torus_dateline(&[r, r])),
            expect_free: true,
        });
    }
    for r in [4, 8] {
        for vcs in [[1u8, 1, 1], [2, 2, 2], [1, 2, 3]] {
            cells.push(Cell {
                name: format!("alg1/{vcs:?}/mesh{r}"),
                radix: r,
                topo: Topology::mesh(&[r, r, r]),
                kind: Kind::Algorithm1(vcs.to_vec()),
                expect_free: true,
            });
        }
    }
    cells
}

impl Workload for VerifyScale {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "verify-scale"
    }

    fn construct(&self, _: &mut Tracer) -> Inputs {
        Inputs {
            cells: cells(),
            ledger: TempFile::new("verify-ledger.jsonl"),
        }
    }

    fn body(&self, inp: &Inputs, checks: &mut Checks) -> Outcome {
        self.run(inp, &mut Tracer::off(), checks)
    }

    fn traced_body(&self, inp: &Inputs, t: &mut Tracer, checks: &mut Checks) -> Outcome {
        self.run(inp, t, checks)
    }

    fn pinned_digest(&self) -> u64 {
        0x1623_5162_5faf_fe90
    }

    /// The scaling points: CDG build cost per edge and Duato
    /// connectivity cost per node, by radix of the 2D cells.
    fn derive(&self, trace: &Trace, m: &mut Metrics) {
        let cells = cells();
        let per_unit = |name: &str, radix: usize| {
            let (mut ns, mut work) = (0, 0);
            for s in trace.spans.iter().filter(|s| s.name == name) {
                let cell = &cells[s.op as usize];
                if cell.radix == radix && cell.topo.dims() == 2 {
                    ns += s.dur_ns();
                    work += s.work;
                }
            }
            ns as f64 / work.max(1) as f64
        };
        for (metric, span, radix) in [
            ("cdg.build_ns_per_edge.r8", "cdg.build", 8),
            ("cdg.build_ns_per_edge.r16", "cdg.build", 16),
            ("cdg.build_ns_per_edge.r32", "cdg.build", 32),
            ("cdg.duato_ns_per_node.r4", "cdg.duato_connectivity", 4),
            ("cdg.duato_ns_per_node.r6", "cdg.duato_connectivity", 6),
            ("cdg.duato_ns_per_node.r8", "cdg.duato_connectivity", 8),
        ] {
            m.set(metric, per_unit(span, radix));
        }
        let edges: u64 = trace
            .spans
            .iter()
            .filter(|s| s.name == "cdg.build")
            .map(|s| s.work)
            .sum();
        m.set("cdg.build_edges", edges as f64);
    }
}

impl VerifyScale {
    /// Every cell, then `ebda check-cert` over the ledger the four-path
    /// cells wrote. With `t` off this is the measured body, through the
    /// program's composite entry points; with `t` on, the same work
    /// taken apart into one spanned call per layer.
    fn run(&self, inp: &Inputs, t: &mut Tracer, checks: &mut Checks) -> Outcome {
        let mut d = Digest::new();
        for (i, cell) in inp.cells.iter().enumerate() {
            t.set_op(i);
            let answer = match &cell.kind {
                Kind::FourPath(artifact) => {
                    let verdicts = if t.is_on() {
                        evaluate_traced(artifact, &CDG_NAMES, t)
                    } else {
                        evaluate(artifact, Mutation::None)
                    };
                    let evidence = evidence_traced(artifact, &verdicts, t, checks);
                    let record = ledger_record(
                        "cli",
                        artifact.summary(),
                        "benchmark",
                        0,
                        &verdicts,
                        &evidence,
                    );
                    t.call("obs.ledger_append", || {
                        ebda_obs::ledger::append(inp.ledger.path(), &[record])
                            .expect("append to the run's ledger")
                    });
                    Answer {
                        free: verdicts.brute.is_deadlock_free(),
                        channels: verdicts.dally.channels,
                        dependencies: verdicts.dally.dependencies,
                        ordering: 0,
                    }
                }
                Kind::Plain(seq) => plain(&cell.topo, seq, t),
                Kind::Algorithm1(vcs) => {
                    let seq = t.call("core.algorithm1", || {
                        partition_network(vcs).expect("Algorithm 1 accepts the budget")
                    });
                    plain(&cell.topo, &seq, t)
                }
            };
            checks.op(answer.free == cell.expect_free, || {
                format!("{}: verdict free={}", cell.name, answer.free)
            });
            d.str(&cell.name);
            for x in [
                answer.free as usize,
                answer.channels,
                answer.dependencies,
                answer.ordering,
            ] {
                d.u64(x as u64);
            }
        }

        // One record per four-path cell, in cell order.
        let checked = check_ledger(inp.ledger.path(), t, checks);
        let four_path = inp
            .cells
            .iter()
            .filter(|c| matches!(c.kind, Kind::FourPath(_)));
        checks.op(checked.len() == four_path.clone().count(), || {
            format!("check-cert passed only {} records", checked.len())
        });
        for (cell, c) in four_path.zip(&checked) {
            checks.op(c.deadlock_free == cell.expect_free, || {
                format!("{}: certificate says free={}", cell.name, c.deadlock_free)
            });
            c.digest_into(&mut d);
        }
        Outcome {
            digest: d.finish(),
            ops: inp.cells.len() as u64,
        }
    }
}

/// The `ebda verify` path: `verify_design` + `channel_ordering`, or —
/// traced — the calls those two make.
fn plain(topo: &Topology, seq: &PartitionSeq, t: &mut Tracer) -> Answer {
    let universe = design_universe(seq);
    let vcs = infer_vcs(&universe, topo.dims());
    if !t.is_on() {
        let report = verify_design(topo, seq).expect("valid design");
        let extraction = extract_turns(seq).expect("valid design");
        let ordering = channel_ordering(topo, &vcs, &universe, extraction.turn_set());
        return Answer {
            free: report.is_deadlock_free() && ordering.is_some(),
            channels: report.channels,
            dependencies: report.dependencies,
            ordering: ordering.map_or(0, |o| o.len()),
        };
    }
    let build = |t: &mut Tracer| {
        let extraction = t.call("core.extract", || extract_turns(seq).expect("valid design"));
        let cdg = t.call("cdg.build", || {
            Cdg::from_turn_set(topo, &vcs, &universe, extraction.turn_set())
        });
        t.work(cdg.edge_count() as u64);
        cdg
    };
    let cdg = build(t);
    let cycle = t.call("cdg.cycle", || cdg.find_cycle());
    let again = build(t);
    let ordering = t.call("cdg.topo_order", || again.topological_order());
    Answer {
        free: cycle.is_none() && ordering.is_some(),
        channels: cdg.node_count(),
        dependencies: cdg.edge_count(),
        ordering: ordering.map_or(0, |o| o.len()),
    }
}
