//! `Channel::parse` and `Channel`'s `Display` against the code they
//! replaced.
//!
//! The parser used to collect every dimension letter, digit run and
//! bracket body into a fresh `String`, and `Display` went through a
//! formatter per field; both now work on slices and write straight into
//! their sink (`Channel::write_to`), because the evidence path renders
//! and parses a channel per hop, turn and hash. The old bodies are kept
//! here verbatim and must agree with the library on every token a
//! seed-pinned generator can splice together from the notation's own
//! pieces — same channel or same error, same rendering — which is also
//! the no-panic fuzzer of `Channel::parse`.

use ebda_core::{Channel, ChannelClass, Dimension, Direction, EbdaError, Parity};
use ebda_obs::Rng64;
use std::fmt::Write as _;

fn old_parse(s: &str) -> Result<Channel, EbdaError> {
    let err = |reason: &'static str| EbdaError::ParseChannel {
        input: s.to_string(),
        reason,
    };
    let s = s.trim();
    let mut chars = s.chars().peekable();
    // Dimension: letter or D<k>.
    let first = chars.next().ok_or_else(|| err("empty input"))?;
    let dim = if first == 'D' || first == 'd' {
        let mut digits = String::new();
        while let Some(c) = chars.peek() {
            if c.is_ascii_digit() {
                digits.push(*c);
                chars.next();
            } else {
                break;
            }
        }
        // "D4" style needs at least one digit; but the digits may also be
        // the VC number for dimension T... The paper never uses D<k> with
        // VCs in text form, so treat all digits here as the index.
        if digits.is_empty() {
            return Err(err("dimension D needs an index, e.g. D4"));
        }
        Dimension::new(
            digits
                .parse::<u8>()
                .map_err(|_| err("dimension index out of range"))?,
        )
    } else {
        Dimension::parse(&first.to_string()).ok_or_else(|| err("unknown dimension letter"))?
    };
    // Optional parity letter.
    let mut parity = None;
    if let Some(&c) = chars.peek() {
        if c == 'e' || c == 'o' {
            parity = Some(if c == 'e' { Parity::Even } else { Parity::Odd });
            chars.next();
        }
    }
    // Optional VC digits; `D<k>` channels separate the VC with a colon
    // ("D4:2+") since digits would otherwise extend the index.
    if chars.peek() == Some(&':') {
        chars.next();
    }
    let mut digits = String::new();
    while let Some(c) = chars.peek() {
        if c.is_ascii_digit() {
            digits.push(*c);
            chars.next();
        } else {
            break;
        }
    }
    let vc = if digits.is_empty() {
        1
    } else {
        let v: u8 = digits
            .parse()
            .map_err(|_| err("virtual-channel number out of range"))?;
        if v == 0 {
            return Err(err("virtual-channel numbers are 1-based"));
        }
        v
    };
    // Direction.
    let dir = match chars.next() {
        Some('+') => Direction::Plus,
        Some('-') => Direction::Minus,
        Some(_) => return Err(err("expected '+' or '-' direction suffix")),
        None => return Err(err("missing '+' or '-' direction suffix")),
    };
    // Optional bracketed coordinate restriction: `[X=3]` / `[X!=3]`.
    let mut coord_class = None;
    if chars.peek() == Some(&'[') {
        chars.next();
        let mut body = String::new();
        loop {
            match chars.next() {
                Some(']') => break,
                Some(c) => body.push(c),
                None => return Err(err("unterminated coordinate restriction bracket")),
            }
        }
        // `[Z%2=0]` restricts by parity on a non-conventional axis;
        // it must be recognised before the plain '=' split.
        if let Some((axis_text, bit_text)) = body.split_once("%2=") {
            let axis = Dimension::parse(axis_text.trim())
                .ok_or_else(|| err("bad axis in parity restriction"))?;
            let parity = match bit_text.trim() {
                "0" => Parity::Even,
                "1" => Parity::Odd,
                _ => return Err(err("parity restriction needs %2=0 or %2=1")),
            };
            coord_class = Some(ChannelClass::AtParity { axis, parity });
        } else {
            let (axis_text, value_text, negated) = match body.split_once("!=") {
                Some((a, v)) => (a, v, true),
                None => match body.split_once('=') {
                    Some((a, v)) => (a, v, false),
                    None => return Err(err("coordinate restriction needs '=' or '!='")),
                },
            };
            let axis = Dimension::parse(axis_text.trim())
                .ok_or_else(|| err("bad axis in coordinate restriction"))?;
            let value: i64 = value_text
                .trim()
                .parse()
                .map_err(|_| err("bad value in coordinate restriction"))?;
            coord_class = Some(if negated {
                ChannelClass::NotAtCoord { axis, value }
            } else {
                ChannelClass::AtCoord { axis, value }
            });
        }
    }
    if chars.next().is_some() {
        return Err(err("trailing characters after direction"));
    }
    let class = match (parity, coord_class) {
        (Some(_), Some(_)) => return Err(err("parity and coordinate restrictions are exclusive")),
        (None, Some(c)) => c,
        (Some(p), None) => ChannelClass::AtParity {
            axis: Channel::conventional_parity_axis(dim),
            parity: p,
        },
        (None, None) => ChannelClass::All,
    };
    Ok(Channel {
        dim,
        dir,
        vc,
        class,
    })
}

/// `Channel`'s `Display` as it was.
fn old_display(c: &Channel) -> String {
    let mut f = String::new();
    let this = c;
    (|| -> std::fmt::Result {
        write!(f, "{}", this.dim)?;
        // The short parity letter only encodes the paper's conventional
        // axis; any other parity axis uses the bracketed suffix below so
        // the rendering stays lossless.
        let conventional = Channel::conventional_parity_axis(this.dim);
        if let ChannelClass::AtParity { axis, parity } = this.class {
            if axis == conventional {
                write!(f, "{parity}")?;
            }
        }
        // Beyond T the dimension prints as `D<k>`, so a colon separates the
        // VC number from the index to keep parsing unambiguous.
        if this.dim.0 > 3 {
            write!(f, ":")?;
        }
        write!(f, "{}{}", this.vc, this.dir)?;
        // Coordinate restrictions use a bracketed suffix, accepted back by
        // `parse`.
        match this.class {
            ChannelClass::AtCoord { axis, value } => write!(f, "[{axis}={value}]"),
            ChannelClass::NotAtCoord { axis, value } => write!(f, "[{axis}!={value}]"),
            ChannelClass::AtParity { axis, parity } if axis != conventional => {
                write!(
                    f,
                    "[{axis}%2={}]",
                    if parity == Parity::Even { 0 } else { 1 }
                )
            }
            _ => Ok(()),
        }
    })()
    .expect("writing to a String cannot fail");
    f
}

/// A token in the shape of the notation — dimension, parity letter,
/// colon, VC, direction, bracketed restriction, each slot drawn from
/// good and bad fillers — with up to two pieces then dropped, doubled
/// or replaced.
fn token(rng: &mut Rng64) -> String {
    const STRAY: &[&str] = &[" ", "é", "Q", "*", "+", "-", "[", "]", "=", "7", ":", "e"];
    let mut pick = |from: &[&'static str]| from[rng.gen_index(from.len())];
    let mut parts = vec![pick(&[
        "X", "Y", "Z", "T", "x", "t", "D4", "D12", "D255", "D256", "D", "d7", "Q", "é", " Y",
    ])];
    parts.push(pick(&["", "", "", "e", "o"]));
    parts.push(pick(&["", "", "", ":"]));
    parts.push(pick(&["", "", "1", "2", "17", "255", "256", "0", "007"]));
    parts.push(pick(&["+", "-", "+", "-", "*", ""]));
    if pick(&["[", "", ""]) == "[" {
        parts.push("[");
        parts.push(pick(&["X", "Y", "Z", "T", "D4", "D200", " x ", "Q", ""]));
        parts.push(pick(&["=", "!=", "%2=", "~", "=="]));
        parts.push(pick(&[
            "0",
            "1",
            "3",
            "-2",
            "+5",
            " 4 ",
            "a",
            "",
            "9223372036854775807",
            "9223372036854775808",
        ]));
        parts.push(pick(&["]", "]", "]", "", "] "]));
    }
    for _ in 0..pick(&["", "", "1", "2"]).parse().unwrap_or(0) {
        let at = pick(&["0", "1", "2", "3", "4", "5"])
            .parse::<usize>()
            .unwrap()
            % parts.len();
        match pick(&["drop", "double", "replace"]) {
            "drop" => drop(parts.remove(at)),
            "double" => parts.insert(at, parts[at]),
            _ => parts[at] = pick(STRAY),
        }
    }
    parts.concat()
}

#[test]
fn parse_and_display_agree_with_the_code_they_replaced() {
    let mut rng = Rng64::new(19);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..60_000 {
        let token = token(&mut rng);
        match (Channel::parse(&token), old_parse(&token)) {
            (Ok(new), Ok(old)) => {
                parsed += 1;
                assert_eq!(new, old, "{token:?}");
                let text = new.to_string();
                assert_eq!(text, old_display(&new), "{token:?}");
                assert_eq!(Channel::parse(&text), Ok(new), "{token:?} as {text}");
            }
            (Err(new), Err(old)) => {
                refused += 1;
                assert_eq!(new.to_string(), old.to_string(), "{token:?}");
            }
            (new, old) => panic!("{token:?}: {new:?} against {old:?}"),
        }
    }
    assert!(
        parsed > 5_000 && refused > 5_000,
        "{parsed} parsed, {refused} refused"
    );
}

#[test]
fn every_class_renders_as_it_did() {
    let classes = [
        ChannelClass::All,
        ChannelClass::AtParity {
            axis: Dimension::X,
            parity: Parity::Even,
        },
        ChannelClass::AtParity {
            axis: Dimension::Y,
            parity: Parity::Odd,
        },
        ChannelClass::AtParity {
            axis: Dimension::new(7),
            parity: Parity::Odd,
        },
        ChannelClass::AtCoord {
            axis: Dimension::Z,
            value: i64::MIN,
        },
        ChannelClass::AtCoord {
            axis: Dimension::new(200),
            value: 0,
        },
        ChannelClass::NotAtCoord {
            axis: Dimension::T,
            value: i64::MAX,
        },
    ];
    for dim in [0, 1, 2, 3, 4, 9, 10, 255] {
        for dir in [Direction::Plus, Direction::Minus] {
            for vc in [1, 9, 10, 255] {
                for class in classes {
                    let c = Channel {
                        dim: Dimension::new(dim),
                        dir,
                        vc,
                        class,
                    };
                    let text = c.to_string();
                    assert_eq!(text, old_display(&c));
                    assert_eq!(Channel::parse(&text), Ok(c), "{text}");
                    let mut out = String::from(">");
                    write!(out, "{c}<").unwrap();
                    assert_eq!(out, format!(">{text}<"));
                }
            }
        }
    }
}
