//! The channel algebra of EbDa (Definitions 1–6 of the paper).
//!
//! A *channel* is the unit resource EbDa reasons about: one direction of one
//! dimension, optionally distinguished by a virtual-channel number and by a
//! node-parity class (the Odd-Even and Hamiltonian-path constructions split
//! channels by the parity of the column/row they sit in).
//!
//! Channels at this level are *classes*: `X1+` names every eastward VC-1 link
//! in the network at once. Concrete, per-link instantiation happens in the
//! `ebda-cdg` crate when a design is verified on a real topology.

use crate::error::{EbdaError, Result};
use ebda_obs::json::write_u64;
use std::fmt;

/// A network dimension (`X`, `Y`, `Z`, `T`, `D4`, `D5`, …).
///
/// Dimensions are identified by a zero-based index; the first four display as
/// the letters used throughout the paper.
///
/// ```
/// use ebda_core::Dimension;
/// assert_eq!(Dimension::X.to_string(), "X");
/// assert_eq!(Dimension::new(5).to_string(), "D5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dimension(pub u8);

impl Dimension {
    /// The `X` dimension (index 0).
    pub const X: Dimension = Dimension(0);
    /// The `Y` dimension (index 1).
    pub const Y: Dimension = Dimension(1);
    /// The `Z` dimension (index 2).
    pub const Z: Dimension = Dimension(2);
    /// The `T` dimension (index 3), as used in the paper's 4-D example.
    pub const T: Dimension = Dimension(3);

    /// Creates a dimension from its zero-based index.
    pub fn new(index: u8) -> Dimension {
        Dimension(index)
    }

    /// Zero-based index of this dimension.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Parses a dimension letter (`X`, `Y`, `Z`, `T`) or `D<k>` form.
    pub fn parse(s: &str) -> Option<Dimension> {
        match s {
            "X" | "x" => Some(Dimension::X),
            "Y" | "y" => Some(Dimension::Y),
            "Z" | "z" => Some(Dimension::Z),
            "T" | "t" => Some(Dimension::T),
            _ => {
                let rest = s.strip_prefix('D').or_else(|| s.strip_prefix('d'))?;
                rest.parse::<u8>().ok().map(Dimension)
            }
        }
    }
}

impl Dimension {
    /// Writes the [`fmt::Display`] form into `out`.
    fn write_to<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        match self.0 {
            0 => out.write_char('X'),
            1 => out.write_char('Y'),
            2 => out.write_char('Z'),
            3 => out.write_char('T'),
            k => {
                out.write_char('D')?;
                write_u64(out, u64::from(k))
            }
        }
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// One of the two directions of a dimension (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// The positive direction (`+`), e.g. East for `X`, North for `Y`.
    Plus,
    /// The negative direction (`-`), e.g. West for `X`, South for `Y`.
    Minus,
}

impl Direction {
    /// The opposite direction.
    ///
    /// ```
    /// use ebda_core::Direction;
    /// assert_eq!(Direction::Plus.opposite(), Direction::Minus);
    /// ```
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Plus => Direction::Minus,
            Direction::Minus => Direction::Plus,
        }
    }

    /// `+1` for [`Direction::Plus`], `-1` for [`Direction::Minus`].
    pub fn sign(self) -> i64 {
        match self {
            Direction::Plus => 1,
            Direction::Minus => -1,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Plus => write!(f, "+"),
            Direction::Minus => write!(f, "-"),
        }
    }
}

/// Node-coordinate parity, used by parity-restricted channel classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Parity {
    /// Even coordinate value.
    Even,
    /// Odd coordinate value.
    Odd,
}

impl Parity {
    /// Parity of an integer coordinate.
    pub fn of(v: i64) -> Parity {
        if v % 2 == 0 {
            Parity::Even
        } else {
            Parity::Odd
        }
    }
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parity::Even => write!(f, "e"),
            Parity::Odd => write!(f, "o"),
        }
    }
}

/// Restriction of a channel class to a subset of network nodes
/// (Definition 6: "channels in different columns/rows are disjoint").
///
/// [`ChannelClass::All`] is the ordinary, unrestricted channel of the paper's
/// main development. [`ChannelClass::AtParity`] restricts the channel to links
/// whose node coordinate along `axis` has the given parity — e.g. the
/// Odd-Even turn model's `Ye*` ("Y channels located in even columns") is a
/// `Y` channel with `AtParity { axis: X, parity: Even }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelClass {
    /// The channel exists at every node.
    All,
    /// The channel exists only where the coordinate along `axis` has the
    /// given `parity`.
    AtParity {
        /// Which coordinate's parity is examined.
        axis: Dimension,
        /// The required parity.
        parity: Parity,
    },
    /// The channel exists only where the coordinate along `axis` equals
    /// `value` — e.g. a torus dateline's wrap channel lives only at the
    /// last coordinate.
    AtCoord {
        /// Which coordinate is examined.
        axis: Dimension,
        /// The required coordinate value.
        value: i64,
    },
    /// The channel exists everywhere *except* where the coordinate along
    /// `axis` equals `value` — the non-wrap remainder of a torus ring.
    NotAtCoord {
        /// Which coordinate is examined.
        axis: Dimension,
        /// The excluded coordinate value.
        value: i64,
    },
}

impl ChannelClass {
    /// Returns `true` if the two classes can co-exist at some node, i.e.
    /// their node sets intersect. Conservative for combinations whose
    /// emptiness depends on the network size (treated as overlapping,
    /// which only makes the disjointness checks stricter, never unsound).
    pub(crate) fn overlaps(self, other: ChannelClass) -> bool {
        use ChannelClass::*;
        match (self, other) {
            (All, _) | (_, All) => true,
            (
                AtParity {
                    axis: a1,
                    parity: p1,
                },
                AtParity {
                    axis: a2,
                    parity: p2,
                },
            ) => a1 != a2 || p1 == p2,
            (
                AtCoord {
                    axis: a1,
                    value: v1,
                },
                AtCoord {
                    axis: a2,
                    value: v2,
                },
            ) => a1 != a2 || v1 == v2,
            (
                AtCoord { axis: a1, value },
                NotAtCoord {
                    axis: a2,
                    value: ex,
                },
            )
            | (
                NotAtCoord {
                    axis: a2,
                    value: ex,
                },
                AtCoord { axis: a1, value },
            ) => a1 != a2 || value != ex,
            (AtCoord { axis: a1, value }, AtParity { axis: a2, parity })
            | (AtParity { axis: a2, parity }, AtCoord { axis: a1, value }) => {
                a1 != a2 || Parity::of(value) == parity
            }
            // NotAtCoord/NotAtCoord and NotAtCoord/AtParity exclude at
            // most one value each; for any radix >= 3 they intersect.
            (NotAtCoord { .. }, _) | (_, NotAtCoord { .. }) => true,
        }
    }

    /// Returns `true` if a node with the given coordinates belongs to the
    /// class.
    pub fn contains(self, coords: &[i64]) -> bool {
        match self {
            ChannelClass::All => true,
            ChannelClass::AtParity { axis, parity } => coords
                .get(axis.index())
                .is_some_and(|&c| Parity::of(c) == parity),
            ChannelClass::AtCoord { axis, value } => {
                coords.get(axis.index()).is_some_and(|&c| c == value)
            }
            ChannelClass::NotAtCoord { axis, value } => {
                coords.get(axis.index()).is_some_and(|&c| c != value)
            }
        }
    }
}

/// A channel class (Definition 1 plus Assumption 5): one direction of one
/// dimension, on one virtual channel, optionally parity-restricted.
///
/// The paper writes channels as `X1+`, `Y2-`, `Ye*`-style tokens; the same
/// notation round-trips through [`Channel::parse`] and [`fmt::Display`]:
///
/// ```
/// use ebda_core::Channel;
/// let c = Channel::parse("X2-").unwrap();
/// assert_eq!(c.to_string(), "X2-");
/// assert_eq!(Channel::parse("Y+").unwrap().to_string(), "Y1+");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    /// The dimension the channel moves along.
    pub dim: Dimension,
    /// The direction of motion.
    pub dir: Direction,
    /// Virtual-channel number, 1-based as in the paper (`X1+`, `X2+`, …).
    /// A network "without VCs" uses VC 1 everywhere.
    pub vc: u8,
    /// Node-parity restriction ([`ChannelClass::All`] for ordinary channels).
    pub class: ChannelClass,
}

impl Channel {
    /// Creates an ordinary (unrestricted, VC 1) channel.
    ///
    /// ```
    /// use ebda_core::{Channel, Dimension, Direction};
    /// let east = Channel::new(Dimension::X, Direction::Plus);
    /// assert_eq!(east.to_string(), "X1+");
    /// ```
    pub fn new(dim: Dimension, dir: Direction) -> Channel {
        Channel {
            dim,
            dir,
            vc: 1,
            class: ChannelClass::All,
        }
    }

    /// Creates a channel on a specific virtual channel (1-based).
    pub fn with_vc(dim: Dimension, dir: Direction, vc: u8) -> Channel {
        Channel {
            dim,
            dir,
            vc,
            class: ChannelClass::All,
        }
    }

    /// Returns a copy restricted to nodes whose coordinate along `axis` has
    /// the given parity.
    pub fn at_parity(mut self, axis: Dimension, parity: Parity) -> Channel {
        self.class = ChannelClass::AtParity { axis, parity };
        self
    }

    /// Returns a copy restricted to nodes whose coordinate along `axis`
    /// equals `value` (e.g. a torus wrap channel at the dateline).
    pub fn at_coord(mut self, axis: Dimension, value: i64) -> Channel {
        self.class = ChannelClass::AtCoord { axis, value };
        self
    }

    /// Returns a copy restricted to nodes whose coordinate along `axis`
    /// differs from `value` (the non-wrap remainder of a ring).
    pub fn not_at_coord(mut self, axis: Dimension, value: i64) -> Channel {
        self.class = ChannelClass::NotAtCoord { axis, value };
        self
    }

    /// Returns the channel moving the opposite way on the same VC and class.
    pub(crate) fn reversed(mut self) -> Channel {
        self.dir = self.dir.opposite();
        self
    }

    /// Returns `true` if the two channel classes denote overlapping physical
    /// resources (same dimension, direction and VC, with intersecting node
    /// classes). Overlapping channels may not appear in disjoint partitions
    /// and may not both appear inside a single partition.
    pub fn overlaps(self, other: Channel) -> bool {
        self.dim == other.dim
            && self.dir == other.dir
            && self.vc == other.vc
            && self.class.overlaps(other.class)
    }

    /// Parses the paper's channel notation.
    ///
    /// Accepted forms: `X+`, `X1+`, `Y2-`, `Ye+`, `Yo2-`, `Ze*`-free forms
    /// (the `*` wildcard is *not* a single channel; expand it with
    /// [`crate::Partition::push_star`]). The parity letter (`e`/`o`), when
    /// present, restricts by the parity convention of the paper: `Y`
    /// channels by column (`X` coordinate), `X` channels by row (`Y`
    /// coordinate); for any other dimension the parity axis defaults to `X`.
    /// Coordinate-restricted classes use the bracketed display suffix:
    /// `X2+[X=3]` ([`ChannelClass::AtCoord`]), `X2+[X!=3]`
    /// ([`ChannelClass::NotAtCoord`]), and `Z1+[Z%2=0]`
    /// ([`ChannelClass::AtParity`] on a non-conventional axis), so every
    /// [`fmt::Display`] rendering round-trips.
    ///
    /// # Errors
    ///
    /// Returns [`EbdaError::ParseChannel`] on malformed input.
    pub fn parse(s: &str) -> Result<Channel> {
        let err = |reason: &'static str| EbdaError::ParseChannel {
            input: s.to_string(),
            reason,
        };
        /// Splits the leading run of ASCII digits off `rest`.
        fn take_digits<'a>(rest: &mut &'a str) -> &'a str {
            let end = rest.bytes().take_while(u8::is_ascii_digit).count();
            let (digits, tail) = rest.split_at(end);
            *rest = tail;
            digits
        }
        let mut chars = s.trim().chars();
        // Dimension: letter or D<k>.
        let first = chars.next().ok_or_else(|| err("empty input"))?;
        let mut rest = chars.as_str();
        let dim = match first {
            'D' | 'd' => {
                // "D4" style needs at least one digit; but the digits may
                // also be the VC number for dimension T... The paper never
                // uses D<k> with VCs in text form, so treat all digits here
                // as the index.
                let digits = take_digits(&mut rest);
                if digits.is_empty() {
                    return Err(err("dimension D needs an index, e.g. D4"));
                }
                Dimension(
                    digits
                        .parse()
                        .map_err(|_| err("dimension index out of range"))?,
                )
            }
            'X' | 'x' => Dimension::X,
            'Y' | 'y' => Dimension::Y,
            'Z' | 'z' => Dimension::Z,
            'T' | 't' => Dimension::T,
            _ => return Err(err("unknown dimension letter")),
        };
        // Optional parity letter.
        let mut parity = None;
        for (letter, p) in [('e', Parity::Even), ('o', Parity::Odd)] {
            if let Some(tail) = rest.strip_prefix(letter) {
                (parity, rest) = (Some(p), tail);
                break;
            }
        }
        // Optional VC digits; `D<k>` channels separate the VC with a colon
        // ("D4:2+") since digits would otherwise extend the index.
        rest = rest.strip_prefix(':').unwrap_or(rest);
        let vc = match take_digits(&mut rest) {
            "" => 1,
            digits => {
                let v: u8 = digits
                    .parse()
                    .map_err(|_| err("virtual-channel number out of range"))?;
                if v == 0 {
                    return Err(err("virtual-channel numbers are 1-based"));
                }
                v
            }
        };
        // Direction.
        let mut chars = rest.chars();
        let dir = match chars.next() {
            Some('+') => Direction::Plus,
            Some('-') => Direction::Minus,
            Some(_) => return Err(err("expected '+' or '-' direction suffix")),
            None => return Err(err("missing '+' or '-' direction suffix")),
        };
        rest = chars.as_str();
        // Optional bracketed coordinate restriction: `[X=3]` / `[X!=3]`.
        let mut coord_class = None;
        if let Some(bracketed) = rest.strip_prefix('[') {
            let (body, tail) = bracketed
                .split_once(']')
                .ok_or_else(|| err("unterminated coordinate restriction bracket"))?;
            rest = tail;
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
        if !rest.is_empty() {
            return Err(err("trailing characters after direction"));
        }
        let class = match (parity, coord_class) {
            (Some(_), Some(_)) => {
                return Err(err("parity and coordinate restrictions are exclusive"))
            }
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

    /// The paper's parity-axis convention: `Y` channels are classified by
    /// column (the `X` coordinate), `X` channels by row (the `Y`
    /// coordinate); any other dimension defaults to classification by `X`.
    pub fn conventional_parity_axis(dim: Dimension) -> Dimension {
        if dim == Dimension::X {
            Dimension::Y
        } else {
            Dimension::X
        }
    }
}

impl Channel {
    /// Writes the channel in the paper's notation — its [`fmt::Display`]
    /// form — into `out` without going through a formatter, for the
    /// writers that render a channel per hop, turn and hash.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.dim.write_to(out)?;
        // The short parity letter only encodes the paper's conventional
        // axis; any other parity axis uses the bracketed suffix below so
        // the rendering stays lossless.
        let conventional = Channel::conventional_parity_axis(self.dim);
        if let ChannelClass::AtParity { axis, parity } = self.class {
            if axis == conventional {
                out.write_char(if parity == Parity::Even { 'e' } else { 'o' })?;
            }
        }
        // Beyond T the dimension prints as `D<k>`, so a colon separates the
        // VC number from the index to keep parsing unambiguous.
        if self.dim.0 > 3 {
            out.write_char(':')?;
        }
        write_u64(out, u64::from(self.vc))?;
        out.write_char(if self.dir == Direction::Plus {
            '+'
        } else {
            '-'
        })?;
        // Coordinate restrictions use a bracketed suffix, accepted back by
        // `parse`.
        let (axis, relation, value) = match self.class {
            ChannelClass::AtCoord { axis, value } => (axis, "=", value),
            ChannelClass::NotAtCoord { axis, value } => (axis, "!=", value),
            ChannelClass::AtParity { axis, parity } if axis != conventional => {
                (axis, "%2=", i64::from(parity == Parity::Odd))
            }
            _ => return Ok(()),
        };
        out.write_char('[')?;
        axis.write_to(out)?;
        out.write_str(relation)?;
        if value < 0 {
            out.write_char('-')?;
        }
        write_u64(out, value.unsigned_abs())?;
        out.write_char(']')
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl std::str::FromStr for Channel {
    type Err = EbdaError;

    fn from_str(s: &str) -> Result<Channel> {
        Channel::parse(s)
    }
}

/// Parses a whitespace- or comma-separated list of channel tokens, expanding
/// the `*` direction wildcard into a `+`/`-` pair (the paper's `Z1*`).
///
/// ```
/// use ebda_core::parse_channels;
/// let chs = parse_channels("Z1* X1+ Y1+").unwrap();
/// assert_eq!(chs.len(), 4);
/// assert_eq!(chs[0].to_string(), "Z1+");
/// assert_eq!(chs[1].to_string(), "Z1-");
/// ```
///
/// # Errors
///
/// Returns [`EbdaError::ParseChannel`] if any token is malformed.
pub fn parse_channels(s: &str) -> Result<Vec<Channel>> {
    let mut out = Vec::new();
    for token in s.split([' ', ',', ';']).filter(|t| !t.is_empty()) {
        if let Some(stem) = token.strip_suffix('*') {
            let plus = Channel::parse(&format!("{stem}+"))?;
            out.push(plus);
            out.push(plus.reversed());
        } else {
            out.push(Channel::parse(token)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_roundtrip() {
        for i in 0..10u8 {
            let d = Dimension::new(i);
            assert_eq!(Dimension::parse(&d.to_string()), Some(d));
        }
    }

    #[test]
    fn parse_plain_channels() {
        let c = Channel::parse("X+").unwrap();
        assert_eq!(c.dim, Dimension::X);
        assert_eq!(c.dir, Direction::Plus);
        assert_eq!(c.vc, 1);
        assert_eq!(c.class, ChannelClass::All);

        let c = Channel::parse("Y2-").unwrap();
        assert_eq!(c.dim, Dimension::Y);
        assert_eq!(c.dir, Direction::Minus);
        assert_eq!(c.vc, 2);
    }

    #[test]
    fn parse_parity_channels() {
        // Odd-Even's "Ye" = Y channels in even columns (X parity).
        let c = Channel::parse("Ye+").unwrap();
        assert_eq!(
            c.class,
            ChannelClass::AtParity {
                axis: Dimension::X,
                parity: Parity::Even
            }
        );
        // Hamiltonian's "Xo" = X channels in odd rows (Y parity).
        let c = Channel::parse("Xo-").unwrap();
        assert_eq!(
            c.class,
            ChannelClass::AtParity {
                axis: Dimension::Y,
                parity: Parity::Odd
            }
        );
    }

    #[test]
    fn parse_higher_dimension() {
        let c = Channel::parse("D4+").unwrap();
        assert_eq!(c.dim, Dimension::new(4));
        assert_eq!(c.vc, 1);
        let c = Channel::parse("T2-").unwrap();
        assert_eq!(c.dim, Dimension::T);
        assert_eq!(c.vc, 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "X", "X0+", "Q1+", "X1", "X1?", "X1+x", "D+"] {
            assert!(Channel::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "X1+",
            "Y2-",
            "Z3+",
            "T1-",
            "Ye1+",
            "Xo2-",
            "D4:1+",
            "D4:2-",
            "X2+[X=3]",
            "X2-[X!=0]",
            "Y1+[Y=-2]",
            "D4:2-[D4!=1]",
            "Z1+[Z%2=0]",
            "Z1-[Z%2=1]",
            "X1+[X%2=0]",
        ] {
            let c = Channel::parse(s).unwrap();
            let printed = c.to_string();
            let reparsed = Channel::parse(&printed).unwrap();
            assert_eq!(c, reparsed, "roundtrip failed for {s}");
        }
    }

    #[test]
    fn parse_coordinate_restrictions() {
        let c = Channel::parse("X2+[X=3]").unwrap();
        assert_eq!(
            c.class,
            ChannelClass::AtCoord {
                axis: Dimension::X,
                value: 3
            }
        );
        assert_eq!(c.vc, 2);
        let c = Channel::parse("Y2-[Y!=0]").unwrap();
        assert_eq!(
            c.class,
            ChannelClass::NotAtCoord {
                axis: Dimension::Y,
                value: 0
            }
        );
        for bad in ["X1+[X=3", "X1+[X~3]", "X1+[Q=3]", "X1+[X=a]", "Ye1+[X=2]"] {
            assert!(Channel::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nonconventional_parity_axes_round_trip() {
        // A Z channel classified by Z parity cannot use the `Ze` short form
        // (that implies the conventional X axis); the bracketed rendering
        // must carry the axis through a print/parse cycle unchanged.
        let c = Channel::with_vc(Dimension::Z, Direction::Plus, 1)
            .at_parity(Dimension::Z, Parity::Even);
        assert_eq!(c.to_string(), "Z1+[Z%2=0]");
        assert_eq!(Channel::parse(&c.to_string()).unwrap(), c);
        // The conventional axis keeps its compact historical spelling.
        let conventional =
            Channel::new(Dimension::Z, Direction::Plus).at_parity(Dimension::X, Parity::Odd);
        assert_eq!(conventional.to_string(), "Zo1+");
        assert_eq!(Channel::parse("Zo1+").unwrap(), conventional);
        for bad in ["Z1+[Z%2=2]", "Z1+[Q%2=0]", "Ze1+[Z%2=0]"] {
            assert!(Channel::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn overlap_rules_match_definition_6() {
        let xp = Channel::parse("X1+").unwrap();
        let xm = Channel::parse("X1-").unwrap();
        let yp = Channel::parse("Y1+").unwrap();
        let xp2 = Channel::parse("X2+").unwrap();
        let ye_p = Channel::parse("Ye1+").unwrap();
        let yo_p = Channel::parse("Yo1+").unwrap();

        // Different dimensions are disjoint (Fig. 2a).
        assert!(!xp.overlaps(yp));
        // Opposite directions are disjoint (Fig. 2b).
        assert!(!xp.overlaps(xm));
        // Different VC numbers are disjoint (Fig. 2c).
        assert!(!xp.overlaps(xp2));
        // Different column parities are disjoint (Fig. 2d).
        assert!(!ye_p.overlaps(yo_p));
        // A channel overlaps itself.
        assert!(xp.overlaps(xp));
        // An unrestricted channel overlaps its parity-restricted slices.
        assert!(yp.overlaps(ye_p) && yp.overlaps(yo_p));
    }

    #[test]
    fn class_membership() {
        let ye = ChannelClass::AtParity {
            axis: Dimension::X,
            parity: Parity::Even,
        };
        assert!(ye.contains(&[0, 5]));
        assert!(ye.contains(&[2, 1]));
        assert!(!ye.contains(&[3, 0]));
        assert!(ChannelClass::All.contains(&[7, 7, 7]));
    }

    #[test]
    fn wildcard_expansion() {
        let chs = parse_channels("X1- Ye1*").unwrap();
        assert_eq!(chs.len(), 3);
        assert_eq!(chs[1].to_string(), "Ye1+");
        assert_eq!(chs[2].to_string(), "Ye1-");
    }

    #[test]
    fn coordinate_class_overlap_rules() {
        use ChannelClass::*;
        let at3 = AtCoord {
            axis: Dimension::X,
            value: 3,
        };
        let at0 = AtCoord {
            axis: Dimension::X,
            value: 0,
        };
        let not3 = NotAtCoord {
            axis: Dimension::X,
            value: 3,
        };
        let y_at3 = AtCoord {
            axis: Dimension::Y,
            value: 3,
        };
        // Same axis, different values: disjoint.
        assert!(!at3.overlaps(at0));
        // Complementary at/not on the same axis+value: disjoint.
        assert!(!at3.overlaps(not3));
        assert!(!not3.overlaps(at3));
        // But AtCoord(0) intersects NotAtCoord(3).
        assert!(at0.overlaps(not3));
        // Different axes always intersect.
        assert!(at3.overlaps(y_at3));
        // Parity interaction: AtCoord(3) is odd, so it misses Even classes.
        let even = AtParity {
            axis: Dimension::X,
            parity: Parity::Even,
        };
        assert!(!at3.overlaps(even));
        assert!(at0.overlaps(even));
        // Conservative cases stay overlapping.
        assert!(not3.overlaps(not3));
        assert!(not3.overlaps(even));
        assert!(All.overlaps(at3));
    }

    #[test]
    fn coordinate_class_membership_and_display() {
        let c = Channel::new(Dimension::X, Direction::Plus).at_coord(Dimension::X, 3);
        assert!(c.class.contains(&[3, 0]));
        assert!(!c.class.contains(&[2, 0]));
        assert_eq!(c.to_string(), "X1+[X=3]");
        let nc = Channel::new(Dimension::X, Direction::Minus).not_at_coord(Dimension::X, 0);
        assert!(nc.class.contains(&[1, 0]));
        assert!(!nc.class.contains(&[0, 5]));
        assert_eq!(nc.to_string(), "X1-[X!=0]");
    }

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::Plus.sign(), 1);
        assert_eq!(Direction::Minus.sign(), -1);
        assert_eq!(Direction::Minus.opposite(), Direction::Plus);
        assert_eq!(Parity::of(-2), Parity::Even);
        assert_eq!(Parity::of(-1), Parity::Odd);
    }
}
