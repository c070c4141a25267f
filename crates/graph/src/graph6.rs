//! The graph6 ASCII interchange format (McKay's `nauty` convention).
//!
//! Supports orders up to 62 in the short form and up to 258 047 in the
//! 4-byte extended form — enough for every graph in this workspace.
//! graph6 is handy for cross-checking enumeration output against `geng`
//! and for compact fixtures in tests.

use crate::error::GraphError;
use crate::graph::Graph;

const MAX_LONG_ORDER: usize = 258_047;

impl Graph {
    /// Encodes this graph in graph6 format.
    ///
    /// # Panics
    ///
    /// Panics if the order exceeds 258 047 (not reachable in this
    /// workspace's workloads).
    pub fn to_graph6(&self) -> String {
        let n = self.order();
        assert!(
            n <= MAX_LONG_ORDER,
            "graph6 supports order <= {MAX_LONG_ORDER}"
        );
        let mut out = String::new();
        if n <= 62 {
            out.push((63 + n as u8) as char);
        } else {
            out.push(126 as char);
            out.push((63 + ((n >> 12) & 0x3f) as u8) as char);
            out.push((63 + ((n >> 6) & 0x3f) as u8) as char);
            out.push((63 + (n & 0x3f) as u8) as char);
        }
        // Upper triangle, column-major: bit for (i, j) with i < j, ordered
        // by j then i.
        let mut bit_buf = 0u8;
        let mut nbits = 0u8;
        for j in 1..n {
            for i in 0..j {
                bit_buf <<= 1;
                if self.has_edge(i, j) {
                    bit_buf |= 1;
                }
                nbits += 1;
                if nbits == 6 {
                    out.push((63 + bit_buf) as char);
                    bit_buf = 0;
                    nbits = 0;
                }
            }
        }
        if nbits > 0 {
            bit_buf <<= 6 - nbits;
            out.push((63 + bit_buf) as char);
        }
        out
    }

    /// Decodes a graph from graph6 format.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Graph6Parse`] for empty input, characters
    /// outside the printable graph6 range, or truncated bit payloads.
    pub fn from_graph6(s: &str) -> Result<Graph, GraphError> {
        let (n, payload) = parse(s)?;
        let mut g = Graph::empty(n);
        // Upper triangle, column-major: bit k is the pair (i, j), i < j,
        // ordered by j then i.
        let (mut i, mut j) = (0usize, 1usize);
        for bit in 0..n * n.saturating_sub(1) / 2 {
            if (payload[bit / 6] - 63) >> (5 - bit % 6) & 1 == 1 {
                g.add_edge(i, j);
            }
            i += 1;
            if i == j {
                (i, j) = (0, j + 1);
            }
        }
        Ok(g)
    }

    /// The leading word of [`Graph::packed_self_key`] for the graph that
    /// `s` encodes, read straight from the graph6 bytes: equal to
    /// `Graph::from_graph6(s)?.packed_self_key().prefix_word()`, without
    /// building the graph.
    ///
    /// The word holds the first 64 pairs (i, j), i < j, of the upper
    /// triangle in row-major order, most significant bit first. graph6
    /// stores the same triangle column-major, so pair (i, j) is payload
    /// bit `j(j − 1)/2 + i`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Graph::from_graph6`]: it accepts and rejects
    /// the same strings, for the same reasons.
    ///
    /// # Examples
    ///
    /// ```
    /// use bnf_graph::Graph;
    ///
    /// // P4 = 0-1-2-3: row-major pairs (0,1)(0,2)(0,3)(1,2)(1,3)(2,3).
    /// assert_eq!(Graph::graph6_prefix_word("Ch")?, 0b100101 << 58);
    /// # Ok::<(), bnf_graph::GraphError>(())
    /// ```
    pub fn graph6_prefix_word(s: &str) -> Result<u64, GraphError> {
        let (n, payload) = parse(s)?;
        let mut word = 0u64;
        let mut shift = 64u32;
        'rows: for i in 0..n {
            for j in (i + 1)..n {
                if shift == 0 {
                    break 'rows;
                }
                shift -= 1;
                let k = j * (j - 1) / 2 + i;
                word |= u64::from((payload[k / 6] - 63) >> (5 - k % 6) & 1) << shift;
            }
        }
        Ok(word)
    }
}

/// Checks a graph6 string's header and declared payload: returns the
/// order and the payload, whose first `⌈n(n − 1)/12⌉` bytes are present
/// and in range (bytes past them are ignored).
fn parse(s: &str) -> Result<(usize, &[u8]), GraphError> {
    let bytes = s.trim_end().as_bytes();
    if bytes.is_empty() {
        return Err(GraphError::Graph6Parse {
            reason: "empty string".into(),
        });
    }
    let parse_byte = |b: u8| -> Result<usize, GraphError> {
        if !(63..=126).contains(&b) {
            return Err(GraphError::Graph6Parse {
                reason: format!("byte {b} outside graph6 range 63..=126"),
            });
        }
        Ok((b - 63) as usize)
    };
    let (n, pos) = if bytes[0] == 126 {
        if bytes.len() < 4 {
            return Err(GraphError::Graph6Parse {
                reason: "truncated extended order".into(),
            });
        }
        if bytes[1] == 126 {
            return Err(GraphError::Graph6Parse {
                reason: "8-byte order form not supported".into(),
            });
        }
        let n =
            (parse_byte(bytes[1])? << 12) | (parse_byte(bytes[2])? << 6) | parse_byte(bytes[3])?;
        (n, 4)
    } else {
        (parse_byte(bytes[0])?, 1)
    };
    // Check the payload against the header's order before a caller
    // allocates, so a short input cannot claim a huge graph.
    let sextets = (n * n.saturating_sub(1) / 2).div_ceil(6);
    let payload = &bytes[pos..];
    for &b in payload.iter().take(sextets) {
        parse_byte(b)?;
    }
    if payload.len() < sextets {
        return Err(GraphError::Graph6Parse {
            reason: "truncated bit payload".into(),
        });
    }
    Ok((n, payload))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        // Standard examples from the nauty documentation.
        assert_eq!(Graph::complete(3).to_graph6(), "Bw");
        assert_eq!(Graph::complete(4).to_graph6(), "C~");
        assert_eq!(Graph::empty(5).to_graph6(), "D??");
        // P4 = 0-1-2-3: pairs (0,1)(0,2)(1,2)(0,3)(1,3)(2,3) -> 101001.
        let p4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(p4.to_graph6(), "Ch");
    }

    #[test]
    fn round_trip_small() {
        let graphs = [
            Graph::empty(0),
            Graph::empty(1),
            Graph::complete(7),
            Graph::from_edges(6, [(0, 3), (1, 4), (2, 5), (0, 5)]).unwrap(),
            Graph::from_edges(9, (0..9).map(|i| (i, (i + 1) % 9))).unwrap(),
        ];
        for g in graphs {
            let enc = g.to_graph6();
            let dec = Graph::from_graph6(&enc).unwrap();
            assert_eq!(dec, g, "round trip failed for {enc}");
        }
    }

    #[test]
    fn round_trip_extended_order() {
        let mut g = Graph::empty(100);
        g.add_edge(0, 99);
        g.add_edge(50, 51);
        let enc = g.to_graph6();
        assert_eq!(enc.as_bytes()[0], 126);
        let dec = Graph::from_graph6(&enc).unwrap();
        assert_eq!(dec, g);
    }

    #[test]
    fn parse_errors() {
        assert!(Graph::from_graph6("").is_err());
        assert!(Graph::from_graph6("C").is_err()); // truncated payload for n=4
        assert!(Graph::from_graph6("\x1f").is_err()); // out of range byte
    }

    #[test]
    fn huge_orders_need_their_payload_before_any_allocation() {
        // `~}~~` declares order 258 047 with no payload: a typed error, not
        // an 8 GB allocation.
        for input in ["~}~~", "~}~~~~~~", "~??~"] {
            assert!(
                matches!(
                    Graph::from_graph6(input),
                    Err(GraphError::Graph6Parse { .. })
                ),
                "{input}"
            );
        }
        // A bad byte inside the declared payload is still reported as such.
        let err = Graph::from_graph6("D?\x1f").unwrap_err().to_string();
        assert!(err.contains("outside graph6 range"), "{err}");
    }

    #[test]
    fn trailing_newline_tolerated() {
        let g = Graph::from_graph6("Bw\n").unwrap();
        assert_eq!(g, Graph::complete(3));
    }

    /// SplitMix64 — a tiny deterministic generator so the property tests
    /// need no external dependency.
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded G(n, density_num / 8) graph.
    pub(crate) fn random_graph(state: &mut u64, n: usize, density_num: u64) -> Graph {
        let mut g = Graph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if splitmix(state) % 8 < density_num {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn round_trip_property_random_graphs() {
        // Round-trip decode(encode(g)) == g over seeded random graphs of
        // every short-form order class and several densities, including
        // the 62-vertex short-form boundary.
        let mut state = 0x6_2026u64;
        for n in [2usize, 5, 8, 13, 21, 33, 62] {
            for density in [1u64, 4, 7] {
                for _ in 0..8 {
                    let g = random_graph(&mut state, n, density);
                    let enc = g.to_graph6();
                    let dec = Graph::from_graph6(&enc).unwrap();
                    assert_eq!(dec, g, "n={n} density={density}/8 enc={enc}");
                }
            }
        }
    }

    #[test]
    fn round_trip_property_extended_form() {
        // Orders above 62 use the 4-byte extended header.
        let mut state = 0xE47u64;
        for n in [63usize, 64, 65, 100, 127] {
            let g = random_graph(&mut state, n, 1);
            let enc = g.to_graph6();
            assert_eq!(enc.as_bytes()[0], 126, "n={n} must use the extended form");
            assert_eq!(Graph::from_graph6(&enc).unwrap(), g, "n={n}");
        }
    }

    #[test]
    fn encoding_is_injective_on_distinct_graphs() {
        // Same order, different edge sets ⇒ different encodings (the
        // payload is a fixed-position bitmap).
        let mut state = 0x1D1u64;
        let mut seen = std::collections::HashMap::new();
        for _ in 0..200 {
            let g = random_graph(&mut state, 9, 4);
            let enc = g.to_graph6();
            if let Some(prev) = seen.insert(enc.clone(), g.clone()) {
                assert_eq!(prev, g, "two distinct graphs shared encoding {enc}");
            }
        }
    }

    /// The byte word against the `Graph` round trip it replaces: the
    /// same `Ok` word, or the same error.
    fn assert_prefix_word_parity(s: &str) {
        let via_graph = Graph::from_graph6(s).map(|g| g.packed_self_key().prefix_word());
        assert_eq!(Graph::graph6_prefix_word(s), via_graph, "{s:?}");
    }

    #[test]
    fn prefix_word_matches_packed_self_key_on_every_small_labelled_graph() {
        for n in 0..=6usize {
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .collect();
            for mask in 0u32..1 << pairs.len() {
                let mut g = Graph::empty(n);
                for (b, &(i, j)) in pairs.iter().enumerate() {
                    if mask >> b & 1 == 1 {
                        g.add_edge(i, j);
                    }
                }
                assert_prefix_word_parity(&g.to_graph6());
            }
        }
    }

    #[test]
    fn prefix_word_matches_packed_self_key_on_random_and_boundary_orders() {
        // From n = 12 the triangle passes 64 bits: only the first word
        // counts. n = 63 is the first order with the `~` header.
        let mut state = 0x9_6E0Du64;
        for n in (7usize..=16).chain([62, 63]) {
            for density in [1u64, 4, 7] {
                for _ in 0..16 {
                    let g = random_graph(&mut state, n, density);
                    let word = Graph::graph6_prefix_word(&g.to_graph6()).unwrap();
                    assert_eq!(word, g.packed_self_key().prefix_word(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn prefix_word_rejects_exactly_what_from_graph6_rejects() {
        let corpus = [
            "", " ", "\n", "\t \n", "Bw\n", "Bw \n", "\nBw", "\x1f", "\x7f", "B\x1f", "B\x7f",
            "D?\x1f", "~", "~?", "~??", "~~", "~~??????", "~??~", "~?@?", "~}~~", "C", "D?", "Bww",
            "Bw\x1f", "Bw~~~~", "?", "?~", "@", "A_", "H",
        ];
        for s in corpus {
            assert_prefix_word_parity(s);
        }
        let err = Graph::graph6_prefix_word("C").unwrap_err().to_string();
        assert!(err.contains("truncated bit payload"), "{err}");
    }

    #[test]
    fn encoded_bytes_stay_in_printable_range() {
        let mut state = 0x99u64;
        for n in [0usize, 1, 7, 30, 70] {
            let g = random_graph(&mut state, n, 5);
            for b in g.to_graph6().bytes() {
                assert!(
                    (63..=126).contains(&b),
                    "byte {b} out of graph6 range (n={n})"
                );
            }
        }
    }
}
