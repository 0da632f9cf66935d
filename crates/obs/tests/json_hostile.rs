//! The JSON reader against hostile input and against the parser it
//! replaced.
//!
//! The properties, the variations and the listed exceptions are in
//! `hostile/mod.rs`; the parser and writers `ebda_obs::json`, `ledger`
//! and `coverage` had before are in `json_ref/mod.rs`, moved there
//! verbatim.

mod hostile;
mod json_ref;

use ebda_obs::json::Value;
use ebda_obs::{CoverageMap, LedgerRecord};

fn same_tree(new: &Value, old: &json_ref::Value) -> bool {
    match (new, old) {
        (Value::Null, json_ref::Value::Null) => true,
        (Value::Bool(a), json_ref::Value::Bool(b)) => a == b,
        (Value::Num(a), json_ref::Value::Num(b)) => a == b,
        (Value::Str(a), json_ref::Value::Str(b)) => a == b,
        (Value::Arr(a), json_ref::Value::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_tree(a, b))
        }
        (Value::Obj(a), json_ref::Value::Obj(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, a), (kb, b))| ka == kb && same_tree(a, b))
        }
        _ => false,
    }
}

use hostile::AWKWARD;

fn records() -> Vec<LedgerRecord> {
    let record = |index: u64, name: &str, seed: u64, provenance: &str| LedgerRecord {
        index,
        source: "oracle".to_string(),
        name: name.to_string(),
        git_rev: "abc1234".to_string(),
        seed,
        verdict: "deadlock-free".to_string(),
        evidence: "certificate".to_string(),
        hash: "499b374294581b24".to_string(),
        gfp_sweeps: 3,
        wait_pairs: 68,
        coverage: "feedfacecafebeef".to_string(),
        provenance: provenance.to_string(),
    };
    let provenance = "{\"format\":1,\"hash\":\"499b374294581b24\",\"radix\":[3,3],\
                      \"ordering\":[{\"from\":0,\"to\":1,\"dim\":0,\"dir\":\"+\",\"vc\":1}],\
                      \"ebda\":{\"refusal\":{\"kind\":\"k\",\"detail\":\"{X1+ \\\"Y\\\"}\"}}}";
    vec![
        record(0, "#0 partitioning on 3x3", 7, provenance),
        record(1 << 40, AWKWARD, (1 << 53) - 1, AWKWARD),
        record(2, "", 0, ""),
    ]
}

fn maps() -> Vec<CoverageMap> {
    let mut small = CoverageMap::new("oracle-seed-7-mutation-none");
    small.record("cdg_edge", "X1+>Y1+");
    small.record_n("cdg_edge", "Y1+>X1-", 3);
    small.record("obligation", "theorem1/p0");
    small.record("design_bin", "d2.r4.w0.v1.tlo.free");
    let mut awkward = CoverageMap::new(AWKWARD);
    awkward.record_n("sim_event", AWKWARD, (1 << 53) - 1);
    awkward.record("turn_denied", "X1+[X!=3]>Y2-[Y=0]");
    awkward.record("turn_denied", "X1+[X!=3]>Y2-");
    awkward.record("turn_denied", "X1+");
    for i in 0..40 {
        awkward.record_n("gfp_pair", format!("X{}+>Y{}-", i % 7, i % 5), i + 1);
    }
    vec![small, awkward, CoverageMap::new("")]
}

#[test]
fn the_writers_produce_the_bytes_the_format_writers_did() {
    let mut strings = vec![AWKWARD.to_string(), String::new()];
    strings.extend((0u8..=0x7f).map(|b| format!("a{}z", b as char)));
    for s in &strings {
        assert_eq!(ebda_obs::json::escape(s), json_ref::escape(s), "{s:?}");
    }
    for r in records() {
        let line = r.to_line();
        assert_eq!(line, json_ref::ledger_to_line(&r));
        assert_eq!(json_ref::ledger_from_line(&line).unwrap(), r);
        assert_eq!(LedgerRecord::from_line(&line).unwrap(), r);
        // Format 1 lines read to the same record.
        let v1 = format_1_line(&r);
        assert_eq!(json_ref::ledger_from_line(&v1).unwrap(), r);
        assert_eq!(LedgerRecord::from_line(&v1).unwrap(), r);
    }
    for m in maps() {
        let json = m.to_json();
        assert_eq!(json, json_ref::coverage_to_json(&m));
        assert_eq!(json_ref::coverage_from_json(&json).unwrap(), m);
        assert_eq!(CoverageMap::from_json(&json).unwrap(), m);
        let mut hash = ebda_obs::json::Fnv1a::new();
        hash.update(json.as_bytes());
        assert_eq!(m.digest(), format!("{:016x}", hash.finish()));
    }
}

/// `r` as format 1 wrote it: the provenance always an escaped string.
fn format_1_line(r: &LedgerRecord) -> String {
    let line = r.to_line();
    let (head, _) = line.split_once(",\"provenance\":").expect("the last field");
    format!(
        "{},\"provenance\":{}}}",
        head.replacen("{\"format\":2,", "{\"format\":1,", 1),
        json_ref::escape(&r.provenance)
    )
}

#[test]
fn hostile_numbers_under_an_unknown_key_are_judged_alike() {
    // The reader skips a number by scanning it against its grammar; the
    // tree parser hands the run to `f64::from_str`. Same verdicts, at the
    // top of a document and inside an inline provenance.
    let line = records()[0].to_line();
    let map = maps()[0].to_json();
    assert!(line.contains(",\"provenance\":{"), "{line}");
    let rows = [
        ("-", false),
        ("01", true),
        ("1.", true),
        ("1e", false),
        ("1e+", false),
        ("1.5.2", false),
        ("--1", false),
        ("-0.5E+3", true),
    ];
    for (number, accepted) in rows {
        let later = format!("\"later\":{number},");
        let top = |doc: &str| doc.replacen('{', &format!("{{{later}"), 1);
        let inner = line.replacen(
            ",\"provenance\":{",
            &format!(",\"provenance\":{{{later}"),
            1,
        );
        for doc in [top(&line), inner.clone()] {
            let got = LedgerRecord::from_line(&doc).map(drop);
            let want = json_ref::ledger_from_line(&doc).map(drop);
            assert_eq!((got.is_ok(), want.is_ok()), (accepted, accepted), "{doc}");
        }
        let got = CoverageMap::from_json(&top(&map)).map(drop);
        let want = json_ref::coverage_from_json(&top(&map)).map(drop);
        assert_eq!(
            (got.is_ok(), want.is_ok()),
            (accepted, accepted),
            "{number}"
        );
        for doc in [top(&line), inner, top(&map)] {
            let (got, want) = (Value::parse(&doc), json_ref::Value::parse(&doc));
            assert_eq!((got.is_ok(), want.is_ok()), (accepted, accepted), "{doc}");
        }
    }
}

#[test]
fn ledger_lines_survive_hostile_input_and_agree_with_the_tree_parser() {
    let mut lines: Vec<String> = records().iter().map(LedgerRecord::to_line).collect();
    lines.push(format_1_line(&records()[0]));
    hostile::differential(
        lines,
        1500,
        LedgerRecord::from_line,
        json_ref::ledger_from_line,
        |r| {
            let line = r.to_line();
            let back = LedgerRecord::from_line(&line).expect("own bytes parse");
            assert_eq!((&back, back.to_line()), (r, line));
        },
    );
}

#[test]
fn coverage_maps_survive_hostile_input_and_agree_with_the_tree_parser() {
    hostile::differential(
        maps().iter().map(CoverageMap::to_json).collect(),
        1500,
        CoverageMap::from_json,
        json_ref::coverage_from_json,
        |m| {
            let json = m.to_json();
            let back = CoverageMap::from_json(&json).expect("own bytes parse");
            assert_eq!((&back, back.to_json()), (m, json));
        },
    );
}

#[test]
fn value_parse_survives_hostile_input_and_agrees_with_the_tree_parser() {
    let mut valid: Vec<String> = records().iter().map(LedgerRecord::to_line).collect();
    valid.push(maps()[1].to_json());
    valid.push(
        r#" { "a" : [ 1 , 2.5e-3 , -0 , true , null ] , "b" : { } , "c" : [ ] , "é" : "\/" } "#
            .to_string(),
    );
    hostile::on_a_small_stack(move || {
        let (mut seen, mut accepted) = (0, 0);
        for (i, doc) in valid.iter().enumerate() {
            hostile::for_each_variation(doc, 23 + i as u64, 1500, |doc| {
                seen += 1;
                let got = Value::parse(doc);
                accepted += usize::from(got.is_ok());
                if hostile::depth(doc) > hostile::REFERENCE_DEPTH {
                    return;
                }
                match (got, json_ref::Value::parse(doc)) {
                    (Ok(got), Ok(want)) => assert!(same_tree(&got, &want), "{doc}"),
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("{got:?} against {want:?}: {doc}"),
                }
            });
        }
        assert!(seen > 5000 && accepted > 20, "{seen} {accepted}");
    });
    // Past the cap the reader refuses; a megabyte of brackets is an `Err`.
    hostile::on_a_small_stack(|| {
        for doc in ["[".repeat(1 << 20), "{\"k\":".repeat(1 << 18)] {
            let err = Value::parse(&doc).unwrap_err();
            assert!(
                err.starts_with("nesting deeper than 128 levels at 1:"),
                "{err}"
            );
            assert!(LedgerRecord::from_line(&doc).is_err());
            assert!(CoverageMap::from_json(&doc).is_err());
        }
    });
}
