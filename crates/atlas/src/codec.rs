//! Columnar block codec for atlas format v4 (frame tag 4).
//!
//! A v4 store packs records into **blocks** of up to [`BLOCK_RECORDS`]
//! records instead of one self-describing frame per record. The block
//! body (the frame payload after the 1-byte tag) is column-major:
//!
//! ```text
//! count   u16 LE                  records in this block (1..=65535)
//! crc     u32 LE                  CRC-32/IEEE over every byte below
//! keys    count × (varint shared_prefix, varint suffix_len, suffix)
//! order   count × zigzag-varint delta vs previous record
//! edges   count × zigzag-varint delta
//! dist    count × zigzag-varint delta   (total_distance)
//! stab    ⌈count/8⌉ presence bitmap (LSB-first), then per present
//!         record: zigzag-varint num, zigzag-varint den, u8 inclusive,
//!         threshold
//! xfer    ⌈count/8⌉ presence bitmap, then per present record:
//!         zigzag-varint num, zigzag-varint den, threshold
//! ucg     count × (varint n, then n × (num, den, threshold))
//! ```
//!
//! A `threshold` is `u8 0` + zigzag-varint num/den (finite) or `u8 1`
//! (`+∞`). Keys are prefix-delta-compressed against the previous key in
//! the block; integer columns are deltas against the previous record's
//! value (starting from 0), zigzagged so descending runs stay short.
//! Deltas use wrapping u64 arithmetic, so the codec is lossless over
//! the full `u64` domain.
//!
//! The CRC makes torn-tail recovery work at block granularity: a frame
//! whose length field arrived but whose body did not is a torn tail,
//! caught by the frame walker before this module runs; a fully present
//! block that fails its CRC is mid-store corruption, which
//! [`crate::ClassificationAtlas`] refuses to recover from.
//!
//! One walker reads blocks, for two entry points: [`decode_block`]
//! materializes every record (store walks and the engine-order
//! reader), and
//! [`decode_block_record`] materializes one (point lookups). Both check
//! the same things — CRC, every column of every record — so they accept
//! exactly the same blocks; the single-record walk skips only the
//! allocations and gcd reductions of the records it does not return.

use bnf_core::{ClosedInterval, LowerBound, StabilityWindow, Threshold, WindowRecord};
use bnf_games::Ratio;

/// Records per full block. Writers flush a block at this count; the
/// final block of a batch may be shorter (minimum 1).
pub const BLOCK_RECORDS: usize = 4096;

/// Slicing-by-8 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic bytewise table, and `CRC_TABLES[k][b]` advances the
/// CRC of byte `b` through `k` further zero bytes, so eight table reads
/// fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32/IEEE (reflected, init and xorout `0xFFFFFFFF`) — the zlib
/// polynomial, hand-rolled so the crate stays dependency-free. Folds
/// eight bytes per step (slicing-by-8), then the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Wrapping difference as a zigzag varint: bijective over `u64`, short
/// for values near the previous one in either direction.
fn put_delta(out: &mut Vec<u8>, prev: u64, value: u64) {
    put_varint(out, zigzag(value.wrapping_sub(prev) as i64));
}

fn put_ratio(out: &mut Vec<u8>, r: Ratio) {
    put_varint(out, zigzag(r.numer()));
    put_varint(out, zigzag(r.denom()));
}

fn put_threshold(out: &mut Vec<u8>, t: Threshold) {
    match t {
        Threshold::Finite(r) => {
            out.push(0);
            put_ratio(out, r);
        }
        Threshold::Infinite => out.push(1),
    }
}

fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Encodes `records` as one v4 block body, appended to `out` (the
/// caller writes the frame tag and length). Panics if `records` is
/// empty or longer than `u16::MAX` — writers chunk at
/// [`BLOCK_RECORDS`], well under both.
pub fn encode_block(records: &[&WindowRecord], out: &mut Vec<u8>) {
    assert!(
        !records.is_empty() && records.len() <= usize::from(u16::MAX),
        "block must hold 1..=65535 records, got {}",
        records.len()
    );
    out.extend_from_slice(&(records.len() as u16).to_le_bytes());
    let crc_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let body_at = out.len();

    let mut prev_key: &[u8] = b"";
    for rec in records {
        let key = rec.key.as_bytes();
        let shared = shared_prefix(prev_key, key);
        put_varint(out, shared as u64);
        put_varint(out, (key.len() - shared) as u64);
        out.extend_from_slice(&key[shared..]);
        prev_key = key;
    }
    for col in &COLUMNS {
        let mut prev = 0u64;
        for rec in records {
            let v = (col.get)(rec);
            put_delta(out, prev, v);
            prev = v;
        }
    }
    put_bitmap(out, records, |r| r.stability.is_some());
    for rec in records {
        if let Some(w) = rec.stability {
            put_ratio(out, w.lower.value);
            out.push(u8::from(w.lower.inclusive));
            put_threshold(out, w.upper);
        }
    }
    put_bitmap(out, records, |r| r.transfer.is_some());
    for rec in records {
        if let Some(iv) = rec.transfer {
            put_ratio(out, iv.lo);
            put_threshold(out, iv.hi);
        }
    }
    for rec in records {
        put_varint(out, rec.ucg_support.len() as u64);
        for iv in &rec.ucg_support {
            put_ratio(out, iv.lo);
            put_threshold(out, iv.hi);
        }
    }

    let crc = crc32(&out[body_at..]).to_le_bytes();
    out[crc_at..body_at].copy_from_slice(&crc);
}

/// The three integer delta columns, in on-disk order: how the encoder
/// reads a column value, how the walker stores one, the column's name
/// for diagnoses, and the largest value the record field holds.
struct Column {
    get: fn(&WindowRecord) -> u64,
    set: fn(&mut WindowRecord, u64),
    name: &'static str,
    max: u64,
}

const COLUMNS: [Column; 3] = [
    Column {
        get: |r| u64::from(r.order),
        set: |r, v| r.order = v as u32,
        name: "order",
        max: u32::MAX as u64,
    },
    Column {
        get: |r| r.edges,
        set: |r, v| r.edges = v,
        name: "edges",
        max: u64::MAX,
    },
    Column {
        get: |r| r.total_distance,
        set: |r, v| r.total_distance = v,
        name: "total_distance",
        max: u64::MAX,
    },
];

fn put_bitmap(
    out: &mut Vec<u8>,
    records: &[&WindowRecord],
    present: impl Fn(&WindowRecord) -> bool,
) {
    let mut byte = 0u8;
    for (i, rec) in records.iter().enumerate() {
        if present(rec) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !records.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// A primitive read failure: the cursor ran out of bytes (`Short`
/// carries the byte count the read wanted) or a varint ran past 64
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadFault {
    Short(usize),
    VarintOverflow,
}

/// Everything the block walker can find wrong. `Copy` and
/// allocation-free, so the per-record loop returns it by value; the
/// diagnosis string is rendered once, through `Display`, at the public
/// boundary. Only `order` is narrower than its u64 column, so
/// `ColumnRange` names u32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Header(usize),
    ZeroCount,
    Crc { stored: u32, computed: u32 },
    Ordinal { ordinal: usize, count: usize },
    Read(ReadFault),
    Column(&'static str, ReadFault),
    ColumnRange(&'static str, u64),
    KeyPrefix { shared: usize, prev: usize },
    KeyUtf8,
    ZeroDenominator,
    RatioMin,
    ThresholdTag(u8),
    InclusiveTag(u8),
    UcgCount(usize),
    Trailing(usize),
}

impl From<ReadFault> for Fault {
    fn from(e: ReadFault) -> Fault {
        Fault::Read(e)
    }
}

impl std::fmt::Display for ReadFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFault::Short(n) => write!(f, "block ends {n} bytes short"),
            ReadFault::VarintOverflow => f.write_str("varint overflows u64"),
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Fault::Header(len) => write!(f, "block header needs 6 bytes, got {len}"),
            Fault::ZeroCount => f.write_str("block declares zero records"),
            Fault::Crc { stored, computed } => write!(
                f,
                "block CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Fault::Ordinal { ordinal, count } => {
                write!(f, "ordinal {ordinal} past a {count}-record block")
            }
            Fault::Read(e) => e.fmt(f),
            Fault::Column(name, e) => write!(f, "{name} column: {e}"),
            Fault::ColumnRange(name, v) => write!(f, "{name} {v} overflows u32"),
            Fault::KeyPrefix { shared, prev } => {
                write!(
                    f,
                    "key shares {shared} bytes with a {prev}-byte predecessor"
                )
            }
            Fault::KeyUtf8 => f.write_str("key is not UTF-8"),
            Fault::ZeroDenominator => f.write_str("ratio with zero denominator"),
            Fault::RatioMin => f.write_str("ratio term i64::MIN has no magnitude in i64"),
            Fault::ThresholdTag(t) => write!(f, "unknown threshold tag {t}"),
            Fault::InclusiveTag(t) => write!(f, "unknown inclusivity tag {t}"),
            Fault::UcgCount(n) => write!(f, "ucg_support count {n} exceeds block"),
            Fault::Trailing(n) => write!(f, "{n} trailing bytes after block"),
        }
    }
}

/// A ratio as stored: a numerator and a non-zero denominator, neither
/// `i64::MIN` (whose magnitude [`Ratio::new`] cannot hold; no
/// well-formed `Ratio` stores it). Only a materialized record pays
/// [`Ratio::new`]'s gcd.
#[derive(Clone, Copy)]
struct RawRatio(i64, i64);

impl RawRatio {
    fn ratio(self) -> Ratio {
        Ratio::new(self.0, self.1)
    }
}

/// A stored threshold: `None` is `+∞`.
fn threshold(raw: Option<RawRatio>) -> Threshold {
    raw.map_or(Threshold::Infinite, |r| Threshold::Finite(r.ratio()))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

// The reads below run once or more per field of every record; forcing
// them inline took about a third off the single-record walk on the
// `atlas_codec/decode_block/one` bench.
impl<'a> Cursor<'a> {
    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8], ReadFault> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ReadFault::Short(n))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    #[inline(always)]
    fn u8(&mut self) -> Result<u8, ReadFault> {
        let b = *self.buf.get(self.pos).ok_or(ReadFault::Short(1))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline(always)]
    fn varint(&mut self) -> Result<u64, ReadFault> {
        // Most stored values are deltas and small rationals: one byte.
        if let Some(&b) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(b));
        }
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(ReadFault::VarintOverflow);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(ReadFault::VarintOverflow);
            }
        }
    }

    #[inline(always)]
    fn delta(&mut self, prev: u64) -> Result<u64, ReadFault> {
        Ok(prev.wrapping_add(unzigzag(self.varint()?) as u64))
    }

    #[inline(always)]
    fn ratio(&mut self) -> Result<RawRatio, Fault> {
        let num = unzigzag(self.varint()?);
        let den = unzigzag(self.varint()?);
        if den == 0 {
            return Err(Fault::ZeroDenominator);
        }
        if num == i64::MIN || den == i64::MIN {
            return Err(Fault::RatioMin);
        }
        Ok(RawRatio(num, den))
    }

    #[inline(always)]
    fn threshold(&mut self) -> Result<Option<RawRatio>, Fault> {
        match self.u8()? {
            0 => Ok(Some(self.ratio()?)),
            1 => Ok(None),
            t => Err(Fault::ThresholdTag(t)),
        }
    }

    #[inline(always)]
    fn interval(&mut self) -> Result<(RawRatio, Option<RawRatio>), Fault> {
        Ok((self.ratio()?, self.threshold()?))
    }
}

fn closed((lo, hi): (RawRatio, Option<RawRatio>)) -> ClosedInterval {
    ClosedInterval {
        lo: lo.ratio(),
        hi: threshold(hi),
    }
}

fn bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

/// The one block walker behind [`decode_block`] and
/// [`decode_block_record`]. It checks the CRC and parses every column
/// of every record — so both entry points accept exactly the same
/// blocks — but materializes only the records in `first..first + len`
/// (`len` is `count` for `None`, 1 for `Some(ordinal)`): an unselected
/// record costs its varints and checks, with no allocation and no gcd.
fn walk(body: &[u8], ordinal: Option<usize>) -> Result<Vec<WindowRecord>, Fault> {
    if body.len() < 6 {
        return Err(Fault::Header(body.len()));
    }
    let count = usize::from(u16::from_le_bytes([body[0], body[1]]));
    if count == 0 {
        return Err(Fault::ZeroCount);
    }
    let stored = u32::from_le_bytes([body[2], body[3], body[4], body[5]]);
    let computed = crc32(&body[6..]);
    if stored != computed {
        return Err(Fault::Crc { stored, computed });
    }
    let (first, len) = match ordinal {
        None => (0, count),
        Some(k) if k < count => (k, 1),
        Some(ordinal) => return Err(Fault::Ordinal { ordinal, count }),
    };
    let mut c = Cursor { buf: body, pos: 6 };
    // The key strings are allocated before the large records vector:
    // the other order fragments the heap over repeated whole-store
    // replays (about 3 % more peak RSS on a warm n = 9 replay).
    let mut keys: Vec<String> = Vec::with_capacity(len);

    let mut key: Vec<u8> = Vec::new();
    // Whether `key` is all ASCII: then any prefix of it plus an ASCII
    // suffix is ASCII too, hence UTF-8, and the full check is skipped.
    let mut ascii = true;
    for i in 0..count {
        let shared = c.varint()? as usize;
        if shared > key.len() {
            return Err(Fault::KeyPrefix {
                shared,
                prev: key.len(),
            });
        }
        let suffix_len = c.varint()? as usize;
        let suffix = c.take(suffix_len)?;
        key.truncate(shared);
        key.extend_from_slice(suffix);
        ascii = ascii && suffix.is_ascii();
        if !ascii {
            std::str::from_utf8(&key).map_err(|_| Fault::KeyUtf8)?;
            ascii = key.is_ascii();
        }
        if i.wrapping_sub(first) < len {
            keys.push(String::from_utf8(key.clone()).map_err(|_| Fault::KeyUtf8)?);
        }
    }
    // Record `i` is selected iff `i - first` (wrapping) indexes `out`.
    let mut out: Vec<WindowRecord> = keys
        .into_iter()
        .map(|key| WindowRecord {
            key,
            order: 0,
            edges: 0,
            total_distance: 0,
            stability: None,
            transfer: None,
            ucg_support: Vec::new(),
        })
        .collect();

    for col in &COLUMNS {
        let mut prev = 0u64;
        for i in 0..count {
            prev = c.delta(prev).map_err(|e| Fault::Column(col.name, e))?;
            if prev > col.max {
                return Err(Fault::ColumnRange(col.name, prev));
            }
            if let Some(rec) = out.get_mut(i.wrapping_sub(first)) {
                (col.set)(rec, prev);
            }
        }
    }

    let present = c.take(count.div_ceil(8))?;
    for i in (0..count).filter(|&i| bit(present, i)) {
        let value = c.ratio()?;
        let inclusive = match c.u8()? {
            0 => false,
            1 => true,
            t => return Err(Fault::InclusiveTag(t)),
        };
        let upper = c.threshold()?;
        if let Some(rec) = out.get_mut(i.wrapping_sub(first)) {
            rec.stability = Some(StabilityWindow {
                lower: LowerBound {
                    value: value.ratio(),
                    inclusive,
                },
                upper: threshold(upper),
            });
        }
    }

    let present = c.take(count.div_ceil(8))?;
    for i in (0..count).filter(|&i| bit(present, i)) {
        let raw = c.interval()?;
        if let Some(rec) = out.get_mut(i.wrapping_sub(first)) {
            rec.transfer = Some(closed(raw));
        }
    }

    for i in 0..count {
        let n_support = c.varint()? as usize;
        if n_support > body.len() - c.pos {
            // Each interval costs ≥ 3 bytes; a count beyond the
            // remaining bytes is corrupt, not an allocation request.
            return Err(Fault::UcgCount(n_support));
        }
        match out.get_mut(i.wrapping_sub(first)) {
            Some(rec) => {
                rec.ucg_support.reserve_exact(n_support);
                for _ in 0..n_support {
                    rec.ucg_support.push(closed(c.interval()?));
                }
            }
            None => {
                for _ in 0..n_support {
                    c.interval()?;
                }
            }
        }
    }
    if c.pos != body.len() {
        return Err(Fault::Trailing(body.len() - c.pos));
    }
    Ok(out)
}

/// Decodes one v4 block body (the frame payload after the tag byte)
/// back into records. Every malformation — bad CRC, truncation,
/// trailing bytes, non-UTF-8 keys, zero denominators, `i64::MIN` ratio
/// terms — comes back as a
/// string diagnosis for the caller to wrap in its typed corruption
/// error.
pub fn decode_block(body: &[u8]) -> Result<Vec<WindowRecord>, String> {
    walk(body, None).map_err(|f| f.to_string())
}

/// The `ordinal`-th record of one v4 block body — equal to
/// `decode_block(body)?[ordinal]`, and an error exactly when
/// [`decode_block`] is (or when `ordinal` is past the block). The whole
/// block is still CRC-checked and parsed, but only the requested record
/// is materialized: the point-lookup path of [`crate::MappedAtlas`].
pub fn decode_block_record(body: &[u8], ordinal: usize) -> Result<WindowRecord, String> {
    let mut records = walk(body, Some(ordinal)).map_err(|f| f.to_string())?;
    Ok(records
        .pop()
        .expect("a walk with an ordinal selects one record"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varints_round_trip_across_the_u64_domain() {
        let mut buf = Vec::new();
        let cases = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &cases {
            buf.clear();
            put_varint(&mut buf, v);
            let mut c = Cursor { buf: &buf, pos: 0 };
            assert_eq!(c.varint().unwrap(), v);
            assert_eq!(c.pos, buf.len());
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let mut c = Cursor {
            buf: &[0x80; 11],
            pos: 0,
        };
        assert_eq!(c.varint(), Err(ReadFault::VarintOverflow));
    }

    fn rec(key: &str, edges: u64) -> WindowRecord {
        WindowRecord {
            key: key.into(),
            order: 5,
            edges,
            total_distance: 40 + edges,
            stability: None,
            transfer: None,
            ucg_support: Vec::new(),
        }
    }

    #[test]
    fn block_round_trips_and_detects_flips() {
        let records = vec![rec("D?{", 4), rec("DQw", 5), rec("DQ{", 6)];
        let refs: Vec<&WindowRecord> = records.iter().collect();
        let mut body = Vec::new();
        encode_block(&refs, &mut body);
        assert_eq!(decode_block(&body).unwrap(), records);

        // Any single bit flip past the header must fail the CRC.
        for pos in [6, body.len() / 2, body.len() - 1] {
            let mut bad = body.clone();
            bad[pos] ^= 0x01;
            assert!(
                decode_block(&bad).unwrap_err().contains("CRC"),
                "flip at {pos} went undetected"
            );
        }

        // A truncated body fails before any column parsing.
        assert!(decode_block(&body[..4]).unwrap_err().contains("header"));
        assert!(decode_block(&body[..body.len() - 1])
            .unwrap_err()
            .contains("CRC"));
    }

    #[test]
    fn i64_min_ratio_terms_are_faults_not_panics() {
        let mut record = rec("D?{", 4);
        record.stability = Some(StabilityWindow {
            lower: LowerBound {
                value: Ratio::new(3, 1),
                inclusive: true,
            },
            upper: Threshold::Infinite,
        });
        let mut body = Vec::new();
        encode_block(&[&record], &mut body);
        // The stability numerator is the first ratio: zigzag(3) = 6, then
        // the denominator zigzag(1) = 2. Splice u64::MAX, the zigzag of
        // i64::MIN, into either varint and restamp the CRC.
        let at = body
            .windows(3)
            .rposition(|w| w == [6, 2, 1])
            .expect("the stability ratio and inclusivity tag");
        let min = {
            let mut v = Vec::new();
            put_varint(&mut v, zigzag(i64::MIN));
            v
        };
        for term in [at, at + 1] {
            let mut bad = body.clone();
            bad.splice(term..term + 1, min.iter().copied());
            let crc = crc32(&bad[6..]).to_le_bytes();
            bad[2..6].copy_from_slice(&crc);
            let err = decode_block(&bad).unwrap_err();
            assert!(err.contains("i64::MIN"), "term at {term}: {err}");
            assert_eq!(decode_block_record(&bad, 0).unwrap_err(), err);
        }
        assert_eq!(decode_block(&body).unwrap(), vec![record]);
    }

    #[test]
    fn prefix_compression_beats_the_row_format_on_sorted_keys() {
        let records: Vec<WindowRecord> = (0..64)
            .map(|i| rec(&format!("H???ABC{}", (b'a' + (i % 26) as u8) as char), i))
            .collect();
        let refs: Vec<&WindowRecord> = records.iter().collect();
        let mut body = Vec::new();
        encode_block(&refs, &mut body);
        assert_eq!(decode_block(&body).unwrap(), records);
        // 64 records sharing a 7-byte prefix: ~3 key bytes each, three
        // 1-byte deltas, two bitmap bits, a 1-byte ucg count — well
        // under the ~40 B/record of the v3 row framing.
        assert!(
            body.len() < 64 * 12,
            "block is {} bytes for 64 records",
            body.len()
        );
    }
}
