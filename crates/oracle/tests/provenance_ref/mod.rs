//! `Provenance::{to_json, from_json, check}` as they were before the
//! pull reader, the buffer writers and the table-driven check: the
//! `format!`/`join` writer, the reader over the owned tree (with its
//! `.to_vec()` of every array), and `check_ordering`/`step_allowed`
//! allocating a coordinate vector and a class vector per probe and
//! ranking channels in a `BTreeMap` on a five-tuple. Moved here verbatim
//! (methods became functions of `p`) as the differential reference of
//! `tests/evidence_differential.rs`; the tree parser they sit on is
//! `crates/obs/tests/json_ref`.
//!
//! One deliberate deviation: a turn `a>a` makes `Turn::new` panic in
//! `from_json`, as it did in the library; the differential treats that
//! panic as this reader's way of refusing the document.
//!
//! Changed since with the format: format 2 writes a hop as the tuple
//! `[from,to,dim,"+",vc]` (`hop_to_json`, `hop_from_tuple`), and a
//! document is read in the hop form of the format it declares.

#![allow(dead_code)]

use super::json_ref::{escape, Value};
use ebda_cdg::topology::Topology;
use ebda_core::certify::check_certificate;
use ebda_core::{Channel, Dimension, Direction, Partition, PartitionSeq, Turn, TurnSet};
use ebda_oracle::provenance::{
    BruteEvidence, CheckReport, DallyEvidence, DuatoEvidence, EbdaEvidence, Hop, Provenance,
    PROVENANCE_FORMAT,
};

fn hop_to_json(hop: Hop) -> String {
    format!(
        "[{},{},{},\"{}\",{}]",
        hop.from,
        hop.to,
        hop.dim,
        match hop.dir {
            Direction::Plus => "+",
            Direction::Minus => "-",
        },
        hop.vc
    )
}

fn hop_from_tuple(v: &Value) -> Result<Hop, String> {
    let Some([from, to, dim, dir, vc]) = v.as_arr() else {
        return Err("a hop is [from,to,dim,dir,vc]".to_string());
    };
    let num = |x: &Value| x.as_u64().ok_or("hop field not a u64");
    let dir = match dir.as_str() {
        Some("+") => Direction::Plus,
        Some("-") => Direction::Minus,
        other => return Err(format!("hop dir must be \"+\" or \"-\", got {other:?}")),
    };
    Ok(Hop {
        from: num(from)? as usize,
        to: num(to)? as usize,
        dim: num(dim)? as u8,
        dir,
        vc: num(vc)? as u8,
    })
}

fn hop_from_value(v: &Value) -> Result<Hop, String> {
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

/// Serializes the record as one line of fixed-key-order JSON (no
/// trailing newline). Byte-deterministic: golden tests pin this.
pub fn to_json(p: &Provenance) -> String {
    let str_arr = |items: &mut dyn Iterator<Item = String>| {
        let body: Vec<String> = items.map(|s| escape(&s)).collect();
        format!("[{}]", body.join(","))
    };
    let hops = |h: &Option<Vec<Hop>>| match h {
        None => "null".to_string(),
        Some(hops) => {
            let body: Vec<String> = hops.iter().map(|h| hop_to_json(*h)).collect();
            format!("[{}]", body.join(","))
        }
    };
    let universe = str_arr(&mut p.universe.iter().map(|c| c.to_string()));
    let turns = str_arr(&mut p.turns.iter().map(|t| format!("{}>{}", t.from, t.to)));
    let ebda = match &p.ebda {
        EbdaEvidence::Certificate { partitions } => {
            let parts: Vec<String> = partitions
                .iter()
                .map(|p| str_arr(&mut p.iter().map(|c| c.to_string())))
                .collect();
            format!("{{\"certificate\":[{}]}}", parts.join(","))
        }
        EbdaEvidence::Refusal { kind, detail } => format!(
            "{{\"refusal\":{{\"kind\":{},\"detail\":{}}}}}",
            escape(kind),
            escape(detail)
        ),
    };
    let unreachable = match p.duato.unreachable {
        None => "null".to_string(),
        Some((a, b)) => format!("[{a},{b}]"),
    };
    format!(
        "{{\"format\":{PROVENANCE_FORMAT},\"hash\":{},\"verdict\":{},\"radix\":[{}],\"wrap\":[{}],\"vcs\":[{}],\"universe\":{universe},\"turns\":{turns},\"ebda\":{ebda},\"ordering\":{},\"dally\":{{\"channels\":{},\"dependencies\":{},\"cycle\":{}}},\"duato\":{{\"escape_acyclic\":{},\"escape_cycle\":{},\"escape_connected\":{},\"unreachable\":{unreachable}}},\"brute\":{{\"channels\":{},\"pairs\":{},\"surviving\":{},\"sweeps\":{},\"witness\":{}}}}}",
        escape(&p.hash_hex()),
        escape(p.verdict_str()),
        p.radix.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(","),
        p.wrap.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(","),
        p.vcs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","),
        hops(&p.ordering),
        p.dally.channels,
        p.dally.dependencies,
        hops(&p.dally.cycle),
        p.duato.escape_acyclic,
        hops(&p.duato.escape_cycle),
        p.duato.escape_connected,
        p.brute.channels,
        p.brute.pairs,
        p.brute.surviving,
        p.brute.sweeps,
        hops(&p.brute.witness),
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
    if !(1..=PROVENANCE_FORMAT).contains(&format) {
        return Err(format!(
            "unsupported provenance format {format} (this build reads 1 to {PROVENANCE_FORMAT})"
        ));
    }
    let hop = if format == 1 {
        hop_from_value
    } else {
        hop_from_tuple
    };
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
            Some(Value::Arr(items)) => items.iter().map(hop).collect::<Result<_, _>>().map(Some),
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
pub fn check(p: &Provenance) -> Result<CheckReport, String> {
    let dims = p.radix.len();
    if p.wrap.len() != dims || p.vcs.len() != dims || dims == 0 {
        return Err(format!(
            "inconsistent shape: {} radices, {} wrap flags, {} vc budgets",
            dims,
            p.wrap.len(),
            p.vcs.len()
        ));
    }
    let topo = Topology::mesh(&p.radix).with_wrap(&p.wrap);
    let mut obligations = 0usize;
    let mut methods = Vec::new();

    // Verdict self-consistency before walking any evidence.
    if p.deadlock_free != p.brute.witness.is_none() || p.deadlock_free != (p.brute.surviving == 0) {
        return Err("verdict disagrees with the brute summary it embeds".to_string());
    }
    obligations += 1;

    if p.deadlock_free {
        if let Some(ordering) = &p.ordering {
            obligations += check_ordering(p, &topo, ordering)?;
            methods.push("channel-ordering");
        }
        if let EbdaEvidence::Certificate { partitions } = &p.ebda {
            obligations += check_ebda_certificate(p, partitions)?;
            // The theorems' sufficiency argument assumes monotone
            // progress within a class — void on wrap-around rings,
            // so a certificate only *proves* the verdict on meshes.
            if !p.wrap.iter().any(|&w| w) {
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
        let witness = p
            .brute
            .witness
            .as_ref()
            .or(p.dally.cycle.as_ref())
            .ok_or("negative verdict carries no witness cycle")?;
        obligations += check_cycle(p, &topo, witness)?;
        methods.push("witness-cycle");
    }
    Ok(CheckReport {
        deadlock_free: p.deadlock_free,
        methods,
        obligations,
    })
}

/// The universe classes matching a hop at its source node.
fn matching_classes(p: &Provenance, topo: &Topology, hop: Hop) -> Vec<Channel> {
    let coords = topo.coords(hop.from);
    p.universe
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
fn step_allowed(p: &Provenance, topo: &Topology, a: Hop, b: Hop) -> bool {
    a.to == b.from
        && matching_classes(p, topo, a).iter().any(|&ca| {
            matching_classes(p, topo, b)
                .iter()
                .any(|&cb| p.turns.allows(ca, cb))
        })
}

/// Confirms a hop is a real link of the topology with a live VC and
/// at least one matching universe class.
fn check_hop(p: &Provenance, topo: &Topology, hop: Hop) -> Result<(), String> {
    if hop.dim as usize >= p.radix.len() {
        return Err(format!(
            "hop {hop} names dimension {} of {}",
            hop.dim,
            p.radix.len()
        ));
    }
    if hop.vc == 0 || hop.vc > p.vcs[hop.dim as usize] {
        return Err(format!(
            "hop {hop} uses vc {} of a {}-vc dimension",
            hop.vc, p.vcs[hop.dim as usize]
        ));
    }
    match topo.neighbor(hop.from, Dimension::new(hop.dim), hop.dir) {
        Some(to) if to == hop.to => {}
        _ => return Err(format!("hop {hop} is not a link of the topology")),
    }
    if matching_classes(p, topo, hop).is_empty() {
        return Err(format!(
            "hop {hop} matches no channel class of the universe"
        ));
    }
    Ok(())
}

/// Walks a witness cycle: every hop real, every consecutive
/// hold→want step allowed, the chain closed.
fn check_cycle(p: &Provenance, topo: &Topology, cycle: &[Hop]) -> Result<usize, String> {
    if cycle.len() < 2 {
        return Err(format!(
            "witness cycle of length {} cannot close",
            cycle.len()
        ));
    }
    let mut obligations = 0usize;
    for &hop in cycle {
        check_hop(p, topo, hop)?;
        obligations += 1;
    }
    for i in 0..cycle.len() {
        let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
        if !step_allowed(p, topo, a, b) {
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
fn check_ordering(p: &Provenance, topo: &Topology, ordering: &[Hop]) -> Result<usize, String> {
    let mut obligations = 0usize;
    // Independent enumeration: every VC of every directed link.
    let mut expected = Vec::new();
    for node in 0..topo.node_count() {
        for d in 0..p.radix.len() {
            for dir in [Direction::Plus, Direction::Minus] {
                if let Some(to) = topo.neighbor(node, Dimension::new(d as u8), dir) {
                    for vc in 1..=p.vcs[d] {
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
            if step_allowed(p, topo, a, b) {
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
fn check_ebda_certificate(p: &Provenance, partitions: &[Vec<Channel>]) -> Result<usize, String> {
    let parts = partitions
        .iter()
        .map(|p| Partition::from_channels(p.iter().copied()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let seq = PartitionSeq::from_partitions(parts);
    check_certificate(&seq, &p.universe, &p.turns)
}
