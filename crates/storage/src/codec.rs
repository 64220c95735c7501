//! `MultiRelation` ↔ bytes, for storing relations as blobs.
//!
//! The encoding carries the schema (column names and domain ids) plus the
//! row-major element words — exactly what the §2.3 representation holds:
//! "each domain value is an integer" after dictionary encoding. Dictionary
//! *contents* are deliberately not here: dictionaries belong to the catalog
//! and are reconstructed by logical redo, not stored per relation.

use systolic_relation::{Column, DomainId, MultiRelation, Schema};

use crate::error::{Result, StorageError};

const MAGIC: &[u8; 4] = b"SREL";

fn corrupt(detail: impl Into<String>) -> StorageError {
    StorageError::Codec {
        detail: detail.into(),
    }
}

/// Encode a relation: `SREL | arity | columns(name, domain) | nrows | elems`.
pub fn encode_relation(rel: &MultiRelation) -> Vec<u8> {
    let arity = rel.arity();
    let mut out = Vec::with_capacity(32 + rel.len() * arity * 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(arity as u32).to_le_bytes());
    for col in rel.schema().columns() {
        out.extend_from_slice(&(col.name.len() as u32).to_le_bytes());
        out.extend_from_slice(col.name.as_bytes());
        out.extend_from_slice(&(col.domain.0 as u64).to_le_bytes());
    }
    out.extend_from_slice(&(rel.len() as u64).to_le_bytes());
    for &e in rel.rows().codes() {
        out.extend_from_slice(&e.to_le_bytes());
    }
    out
}

/// Decode what [`encode_relation`] produced.
pub fn decode_relation(bytes: &[u8]) -> Result<MultiRelation> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8]> {
        if bytes.len() < *at + n {
            return Err(corrupt("relation blob truncated"));
        }
        let s = &bytes[*at..*at + n];
        *at += n;
        Ok(s)
    };
    if take(&mut at, 4)? != MAGIC {
        return Err(corrupt("relation blob: bad magic"));
    }
    let arity = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
    if arity == 0 || arity > 1 << 16 {
        return Err(corrupt(format!("relation blob: implausible arity {arity}")));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(&mut at, name_len)?.to_vec())
            .map_err(|_| corrupt("relation blob: column name not UTF-8"))?;
        let domain = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap()) as usize;
        columns.push(Column::new(name, DomainId(domain)));
    }
    let nrows = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap()) as usize;
    let expect = nrows
        .checked_mul(arity)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| corrupt("relation blob: row count overflow"))?;
    if bytes.len() != at + expect {
        return Err(corrupt(format!(
            "relation blob: {} body bytes, expected {expect}",
            bytes.len() - at
        )));
    }
    let codes = bytes[at..]
        .chunks_exact(8)
        .map(|word| i64::from_le_bytes(word.try_into().expect("8-byte chunk")))
        .collect();
    MultiRelation::from_codes(Schema::new(columns), codes)
        .map_err(|e| corrupt(format!("relation blob: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MultiRelation {
        let schema = Schema::new(vec![
            Column::new("name", DomainId(0)),
            Column::new("salary", DomainId(1)),
        ]);
        MultiRelation::new(schema, vec![vec![1, 3000], vec![2, 2500], vec![-7, 0]]).unwrap()
    }

    #[test]
    fn relations_round_trip() {
        let rel = sample();
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes).unwrap();
        assert_eq!(back.schema(), rel.schema());
        assert_eq!(back.rows(), rel.rows());
    }

    #[test]
    fn empty_relations_round_trip() {
        let schema = Schema::new(vec![Column::new("k", DomainId(4))]);
        let rel = MultiRelation::new(schema, vec![]).unwrap();
        let back = decode_relation(&encode_relation(&rel)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.schema(), rel.schema());
    }

    #[test]
    fn damage_is_rejected_not_misdecoded() {
        let bytes = encode_relation(&sample());
        assert!(decode_relation(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_relation(&[]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(decode_relation(&wrong_magic).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_relation(&extra).is_err());
    }
}
