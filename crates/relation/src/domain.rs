//! Underlying domains and integer encoding (§2.3).
//!
//! "An element can be of any data type: an integer, a boolean value, a
//! string, etc. ... Each member of the domain is uniquely and reversably
//! encoded into an integer. These integer encodings are the form in which
//! the elements are stored in the relations, and the list of encodings is
//! stored separately." This module implements exactly that: typed [`Datum`]
//! values, [`Domain`]s that encode them to [`Elem`] integers (with a
//! dictionary for strings), and reverse decoding for output.

use std::collections::HashMap;

use crate::error::RelationError;

/// An encoded relation element — re-exported from the fabric so that rows
/// can be streamed into arrays without conversion.
pub type Elem = i64;

/// A typed, human-facing value before encoding (or after decoding).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datum {
    /// An integer (encodes as itself).
    Int(i64),
    /// A string (dictionary-encoded).
    Str(String),
    /// A boolean (encodes as 0 / 1).
    Bool(bool),
    /// A calendar date as days since an epoch (encodes as itself); §2.3
    /// names calendar dates as a representative non-integer type.
    Date(i64),
}

impl Datum {
    /// Shorthand constructor for string data.
    pub fn str(s: impl Into<String>) -> Self {
        Datum::Str(s.into())
    }
}

impl std::fmt::Display for Datum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "{s}"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Date(d) => write!(f, "day#{d}"),
        }
    }
}

/// The value kind a domain draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Integers, identity-encoded.
    Int,
    /// Strings, dictionary-encoded in arrival order.
    Str,
    /// Booleans, encoded 0 / 1.
    Bool,
    /// Dates (days since epoch), identity-encoded.
    Date,
}

/// Identifies a domain within a [`crate::catalog::Catalog`]. Two columns are
/// drawn from "the same underlying domain" (§2.4) exactly when their
/// `DomainId`s are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub usize);

/// An underlying domain: a named, typed value space with a reversible
/// integer encoding.
#[derive(Debug, Clone)]
pub struct Domain {
    name: String,
    kind: DomainKind,
    /// Dictionary for string domains: code -> string.
    dict: Vec<String>,
    /// Reverse dictionary: string -> code.
    index: HashMap<String, Elem>,
}

impl Domain {
    /// Create a domain of the given kind.
    pub fn new(name: impl Into<String>, kind: DomainKind) -> Self {
        Domain {
            name: name.into(),
            kind,
            dict: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The domain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain's value kind.
    pub fn kind(&self) -> DomainKind {
        self.kind
    }

    /// Number of dictionary entries (string domains only).
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Encode a datum, interning new strings into the dictionary.
    ///
    /// Returns [`RelationError::DomainMismatch`] if the datum's type does not
    /// match the domain kind.
    pub fn encode(&mut self, datum: &Datum) -> Result<Elem, RelationError> {
        match (self.kind, datum) {
            (DomainKind::Int, Datum::Int(v)) => Ok(*v),
            (DomainKind::Date, Datum::Date(v)) => Ok(*v),
            (DomainKind::Bool, Datum::Bool(b)) => Ok(*b as Elem),
            (DomainKind::Str, Datum::Str(s)) => {
                if let Some(&code) = self.index.get(s) {
                    Ok(code)
                } else {
                    let code = self.dict.len() as Elem;
                    self.dict.push(s.clone());
                    self.index.insert(s.clone(), code);
                    Ok(code)
                }
            }
            (kind, datum) => Err(RelationError::DomainMismatch {
                detail: format!(
                    "datum {datum:?} cannot live in {kind:?} domain {:?}",
                    self.name
                ),
            }),
        }
    }

    /// Encode without interning; unknown strings are an error. Used when a
    /// value must already be a member of the domain (e.g. query constants).
    pub fn encode_existing(&self, datum: &Datum) -> Result<Elem, RelationError> {
        match (self.kind, datum) {
            (DomainKind::Int, Datum::Int(v)) => Ok(*v),
            (DomainKind::Date, Datum::Date(v)) => Ok(*v),
            (DomainKind::Bool, Datum::Bool(b)) => Ok(*b as Elem),
            (DomainKind::Str, Datum::Str(s)) => {
                self.index
                    .get(s)
                    .copied()
                    .ok_or_else(|| RelationError::DomainMismatch {
                        detail: format!("string {s:?} is not a member of domain {:?}", self.name),
                    })
            }
            (kind, datum) => Err(RelationError::DomainMismatch {
                detail: format!(
                    "datum {datum:?} cannot live in {kind:?} domain {:?}",
                    self.name
                ),
            }),
        }
    }

    /// Decode an element back to a typed datum ("whenever necessary, the
    /// integers are decoded into the appropriate value", §2.3).
    pub fn decode(&self, code: Elem) -> Result<Datum, RelationError> {
        match self.kind {
            DomainKind::Int => Ok(Datum::Int(code)),
            DomainKind::Date => Ok(Datum::Date(code)),
            DomainKind::Bool => match code {
                0 => Ok(Datum::Bool(false)),
                1 => Ok(Datum::Bool(true)),
                _ => Err(RelationError::DecodeOutOfRange { code }),
            },
            DomainKind::Str => self.dict_str(code).map(Datum::str),
        }
    }

    /// The dictionary entry behind a string `code`, borrowed — what output
    /// paths copy from instead of cloning a [`Datum`] per cell. Errors as
    /// [`Self::decode`] does on a code with no entry.
    pub fn dict_str(&self, code: Elem) -> Result<&str, RelationError> {
        usize::try_from(code)
            .ok()
            .and_then(|at| self.dict.get(at))
            .map(String::as_str)
            .ok_or(RelationError::DecodeOutOfRange { code })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_date_domains_encode_identity() {
        let mut d = Domain::new("age", DomainKind::Int);
        assert_eq!(d.encode(&Datum::Int(-5)).unwrap(), -5);
        assert_eq!(d.decode(-5).unwrap(), Datum::Int(-5));
        let mut d = Domain::new("hired", DomainKind::Date);
        assert_eq!(d.encode(&Datum::Date(19000)).unwrap(), 19000);
        assert_eq!(d.decode(19000).unwrap(), Datum::Date(19000));
    }

    #[test]
    fn string_encoding_is_unique_and_reversible() {
        let mut d = Domain::new("name", DomainKind::Str);
        let a = d.encode(&Datum::str("alice")).unwrap();
        let b = d.encode(&Datum::str("bob")).unwrap();
        let a2 = d.encode(&Datum::str("alice")).unwrap();
        assert_eq!(a, a2, "encoding must be unique per value");
        assert_ne!(a, b);
        assert_eq!(d.decode(a).unwrap(), Datum::str("alice"));
        assert_eq!(d.decode(b).unwrap(), Datum::str("bob"));
        assert_eq!(d.dict_len(), 2);
    }

    #[test]
    fn bool_round_trip_and_bad_code() {
        let mut d = Domain::new("flag", DomainKind::Bool);
        assert_eq!(d.encode(&Datum::Bool(true)).unwrap(), 1);
        assert_eq!(d.decode(0).unwrap(), Datum::Bool(false));
        assert!(matches!(
            d.decode(7),
            Err(RelationError::DecodeOutOfRange { code: 7 })
        ));
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let mut d = Domain::new("age", DomainKind::Int);
        assert!(d.encode(&Datum::str("x")).is_err());
        let d = Domain::new("name", DomainKind::Str);
        assert!(d.encode_existing(&Datum::Int(3)).is_err());
    }

    #[test]
    fn encode_existing_rejects_unknown_strings() {
        let mut d = Domain::new("name", DomainKind::Str);
        d.encode(&Datum::str("known")).unwrap();
        assert!(d.encode_existing(&Datum::str("known")).is_ok());
        assert!(d.encode_existing(&Datum::str("unknown")).is_err());
    }

    #[test]
    fn decode_unknown_string_code_fails() {
        let d = Domain::new("name", DomainKind::Str);
        assert!(matches!(
            d.decode(0),
            Err(RelationError::DecodeOutOfRange { .. })
        ));
        assert!(matches!(
            d.decode(-1),
            Err(RelationError::DecodeOutOfRange { .. })
        ));
    }

    #[test]
    fn datum_display() {
        assert_eq!(Datum::Int(3).to_string(), "3");
        assert_eq!(Datum::str("x").to_string(), "x");
        assert_eq!(Datum::Bool(true).to_string(), "true");
        assert_eq!(Datum::Date(10).to_string(), "day#10");
    }
}
