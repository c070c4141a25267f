//! Read-only views of a store's on-disk layout (docs/ATLAS_FORMAT.md):
//! its columnar block frames and the sidecar's engine-order table.
//! Used for the layout counts and to hand raw block bodies to
//! `codec::decode_block`.

use std::path::Path;

/// Frame tag of a v4 columnar record block.
const TAG_BLOCK: u8 = 4;

fn bad(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// Every block frame of the store at `path`: the frame's byte offset
/// and its body (after the tag byte).
pub fn block_frames(path: &Path) -> std::io::Result<Vec<(u64, Vec<u8>)>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 12 || &bytes[..8] != b"BNFATLAS" {
        return Err(bad(format!("{} is not an atlas store", path.display())));
    }
    let mut at = 12usize;
    let mut blocks = Vec::new();
    while at < bytes.len() {
        let len = u32_at(&bytes, at).ok_or_else(|| bad(format!("torn frame at {at}")))? as usize;
        let payload = bytes
            .get(at + 4..at + 4 + len)
            .filter(|p| !p.is_empty())
            .ok_or_else(|| bad(format!("frame at {at} runs past the end")))?;
        if payload[0] == TAG_BLOCK {
            blocks.push((at as u64, payload[1..].to_vec()));
        }
        at += 4 + len;
    }
    Ok(blocks)
}

/// Record count of a block body (its leading `u16`).
pub fn block_len(body: &[u8]) -> u64 {
    body.get(..2)
        .map_or(0, |b| u64::from(u16::from_le_bytes([b[0], b[1]])))
}

/// The frame offsets of `order`'s engine-order table in the sidecar at
/// `index`, one per record, in engine order.
pub fn engine_order_offsets(index: &Path, order: u16) -> std::io::Result<Vec<u64>> {
    let bytes = std::fs::read(index)?;
    if bytes.len() < 36 || &bytes[..8] != b"BNFATIDX" {
        return Err(bad(format!("{} is not an index sidecar", index.display())));
    }
    let entries = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let key_width = u64::from(u16::from_le_bytes([bytes[32], bytes[33]]));
    let tables = u16::from_le_bytes([bytes[34], bytes[35]]);
    let mut at = usize::try_from(36 + entries * (11 + key_width))
        .map_err(|_| bad("key table overflows".into()))?;
    for _ in 0..tables {
        let head = bytes
            .get(at..at + 10)
            .ok_or_else(|| bad(format!("sweep table header at {at} is torn")))?;
        let table_order = u16::from_le_bytes([head[0], head[1]]);
        let count = u64::from_le_bytes(head[2..10].try_into().expect("8 bytes")) as usize;
        let body = bytes
            .get(at + 10..at + 10 + count * 10)
            .ok_or_else(|| bad(format!("sweep table at {at} is torn")))?;
        if table_order == order {
            return Ok(body
                .chunks_exact(10)
                .map(|c| u64::from_le_bytes(c[..8].try_into().expect("8 bytes")))
                .collect());
        }
        at += 10 + count * 10;
    }
    Err(bad(format!("no engine-order table for order {order}")))
}

/// How often consecutive records of an engine-order scan sit in
/// different frames.
pub fn block_switches(offsets: &[u64]) -> u64 {
    offsets.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

/// Records a point lookup decodes on average when keys are drawn
/// uniformly over the whole table: a lookup decodes the whole block
/// holding its record, so the mean is `Σ size² / Σ size`.
pub fn records_decoded_per_lookup(block_sizes: &[u64]) -> f64 {
    let total: u64 = block_sizes.iter().sum();
    let squares: u64 = block_sizes.iter().map(|s| s * s).sum();
    squares as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts() {
        assert_eq!(block_switches(&[5, 5, 9, 9, 5, 12]), 3);
        assert_eq!(block_switches(&[]), 0);
        assert_eq!(records_decoded_per_lookup(&[4096, 4096]), 4096.0);
        assert_eq!(records_decoded_per_lookup(&[3, 1]), 2.5);
    }
}
