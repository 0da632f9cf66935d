//! The names the benchmark emits. `BENCHMARK.json` at the repository
//! root lists exactly these (a unit test compares the two).

/// `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "verify-scale",
        "time to a verdict as the network grows: cdg and core work on a few large graphs, sim does none",
    ),
    (
        "campaign",
        "artifacts per second through all four verdict paths with evidence: oracle, corpus and obs I/O on many tiny graphs",
    ),
    (
        "sim-lowload",
        "host time per simulated router-cycle when almost every router is idle: the cost of visiting idle routers, route queries nearly bypassed",
    ),
    (
        "sim-saturation",
        "same simulator past the saturation knee: route, vc_alloc and switch dominate, idle-router shortcuts do not help",
    ),
    (
        "enumerate",
        "the paper's 4^c argument: cdg builds thousands of tiny graphs one turn apart, no I/O and no simulation",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The bounds are three times the widest spread (quartile distance over
/// median of ten 20 s runs on ten seeds) any workload showed for the
/// metric on the 2-vCPU shared host the benchmark was sized on, rounded
/// up: 4.6 to 5.9% for the times (campaign), 5.8% for peak RSS (a 5 MB
/// process moves by whole allocator arenas). Set-up gets the widest:
/// `enumerate`'s is 3 microseconds. README.md has the tables.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// Per-layer metric names, grouped by layer (= crate). The unit follows
/// from the name, see [`unit_of`]; all are better lower except
/// [`HIGHER_IS_BETTER`].
pub const PER_LAYER: &[&str] = &[
    // core
    "core.extract_ns",
    "core.design_verdict_ns",
    "core.algorithm1_ns",
    // cdg
    "cdg.build_ns",
    "cdg.build_edges",
    "cdg.cycle_ns",
    "cdg.topo_order_ns",
    "cdg.duato_connectivity_ns",
    "cdg.build_ns_per_edge.r8",
    "cdg.build_ns_per_edge.r16",
    "cdg.build_ns_per_edge.r32",
    "cdg.duato_ns_per_node.r4",
    "cdg.duato_ns_per_node.r6",
    "cdg.duato_ns_per_node.r8",
    "cdg.enum_ns_per_model",
    "cdg.enum_models",
    "cdg.incr_query_ns",
    "cdg.incr_apply_ns",
    "cdg.incr_fallbacks",
    "cdg.symmetry_ns",
    // oracle
    "oracle.generate_ns",
    "oracle.ebda_ns",
    "oracle.dally_ns",
    "oracle.duato_ns",
    "oracle.brute_ns",
    "oracle.gfp_sweeps",
    "oracle.wait_pairs",
    "oracle.cross_check_ns",
    "oracle.provenance_build_ns",
    "oracle.provenance_bytes",
    "oracle.cert_parse_ns",
    "oracle.cert_check_ns",
    "oracle.cert_obligations",
    "oracle.coverage_ns",
    "oracle.shrink_ns",
    "oracle.shrink_evals",
    // corpus
    "corpus.load_ns",
    "corpus.entries",
    "corpus.check_entry_ns",
    // obs
    "obs.ledger_append_ns",
    "obs.ledger_bytes",
    "obs.ledger_parse_ns",
    "obs.coverage_merge_ns",
    "obs.coverage_write_ns",
    "obs.prof_overhead_ratio",
    "obs.recorder_overhead_ratio",
    // par
    "par.fork_join_ns",
    "par.speedup_t2",
    "par.tasks",
    // routing
    "routing.construct_ns",
    "routing.dist_table_build_ns",
    "routing.tables",
    "routing.route_query_ns",
    "routing.route_queries",
    // sim
    "sim.route_ns",
    "sim.vc_alloc_ns",
    "sim.switch_ns",
    "sim.credit_ns",
    "sim.eject_ns",
    "sim.other_ns",
    "sim.cycles",
    "sim.route_queries",
    "sim.vc_grants",
    "sim.link_flits",
    "sim.credits_returned",
    "sim.flits_ejected",
    "sim.ns_per_router_cycle",
    // harness
    "alloc.count",
    "alloc.bytes",
    "trace.overhead_ratio",
    "trace.unattributed_share",
];

pub const HIGHER_IS_BETTER: &[&str] = &["par.speedup_t2"];

pub fn unit_of(name: &str) -> &'static str {
    if name.contains("_ns") || name.contains(".ns_") {
        "ns"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("_ratio") || name.ends_with("_share") || name == "par.speedup_t2" {
        "ratio"
    } else {
        "count"
    }
}

pub fn better_of(name: &str) -> Better {
    if HIGHER_IS_BETTER.contains(&name) {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    use ebda_obs::json::escape;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    out.push_str(&format!(
        "  \"workloads\": {},\n",
        rows(
            WORKLOADS
                .iter()
                .map(|(name, why)| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    escape(name),
                    escape(why)
                ))
                .collect()
        )
    ));
    out.push_str(&format!(
        "  \"end_to_end\": {},\n",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    escape(m.name),
                    escape(m.unit),
                    escape(m.better.as_str()),
                    m.bound
                ))
                .collect()
        )
    ));
    out.push_str(&format!(
        "  \"per_layer\": {}\n",
        rows(
            PER_LAYER
                .iter()
                .map(|name| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    escape(name),
                    escape(unit_of(name)),
                    escape(better_of(name).as_str())
                ))
                .collect()
        )
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        assert!(name_ok("cdg.build_ns_per_edge.r8"));
        assert!(!name_ok(".hidden"));
        assert!(!name_ok("has space"));
        assert!(!name_ok("slash/name"));
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().copied());
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} is used twice");
        }
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {:?}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for name in PER_LAYER {
            assert!(unit_ok(unit_of(name)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        // The set-up metric the contract requires, with the widest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn units_follow_from_names() {
        assert_eq!(unit_of("cdg.build_ns_per_edge.r8"), "ns");
        assert_eq!(unit_of("sim.ns_per_router_cycle"), "ns");
        assert_eq!(unit_of("oracle.provenance_bytes"), "bytes");
        assert_eq!(unit_of("alloc.bytes"), "bytes");
        assert_eq!(unit_of("trace.unattributed_share"), "ratio");
        assert_eq!(unit_of("par.speedup_t2"), "ratio");
        assert_eq!(unit_of("sim.cycles"), "count");
        assert_eq!(better_of("par.speedup_t2"), Better::Higher);
        assert_eq!(better_of("sim.route_ns"), Better::Lower);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = ebda_obs::json::Value::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        let want = |xs: Vec<&str>| xs.into_iter().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            names("workloads"),
            want(WORKLOADS.iter().map(|w| w.0).collect())
        );
        assert_eq!(
            names("end_to_end"),
            want(END_TO_END.iter().map(|m| m.name).collect())
        );
        assert_eq!(names("per_layer"), want(PER_LAYER.to_vec()));
        // Units, directions and bounds too: the file is this table.
        let run_seconds = doc.get("run_seconds").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(text, benchmark_json(run_seconds));
    }
}
