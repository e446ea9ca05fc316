//! Mmap-style on-disk dataset images.
//!
//! A snapshot ([`crate::snapshot`]) is built for durability: it stores the
//! edge list and *rebuilds* the graph through `GraphBuilder` — an
//! `O(m log m)` sort/dedup on every load. An **image** is built for load
//! speed: it lays the already-encoded compact representation
//! ([`relgraph::CompactGraph`]) out verbatim, so loading is one
//! `fs::read` plus section slicing — no parsing, no sorting, no
//! re-encoding. The server's `--data-dir` startup path prefers a current
//! image over replaying the snapshot.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   magic "RGIM" · version u8 · flags u8 · pad u16
//!          graph version u64 · node count u64 · edge count u64
//! table    8 sections × (offset u64, len u64)
//! data     sections, each starting on an 8-byte boundary:
//!            0 meta JSON        {dataset}
//!            1 out offsets      u32s or u64s (flag bit 1)
//!            2 out stream       delta-varint bytes
//!            3 out weight sums  f64 bits (empty when unweighted)
//!            4 in offsets       u32s or u64s (flag bit 2)
//!            5 in stream        delta-varint bytes
//!            6 in weight sums   f64 bits (empty when unweighted)
//!            7 labels JSON      [(index, label), ...]
//! trailer  pad to 8 · crc32 of every preceding byte
//! ```
//!
//! The 8-byte section alignment keeps every fixed-width section directly
//! reinterpretable by an mmap-style reader; this loader copies the slices
//! into `Vec`s (no `unsafe`), which is still a single pass over the
//! bytes. Decoding re-validates everything: magic, version, flags, CRC,
//! section bounds, and finally the full stream validation inside
//! [`CompactGraph::from_raw`] — a CRC-clean but inconsistent image cannot
//! produce a graph that misbehaves later.

use crate::crc32::crc32;
use crate::snapshot::SnapshotError;
use relgraph::{CompactAdjacency, CompactGraph, LabelTable, NodeId, OffsetIndex};
use serde::{Deserialize, Serialize};

/// Magic bytes leading every image file.
pub const IMAGE_MAGIC: [u8; 4] = *b"RGIM";

/// Current image format version.
pub const IMAGE_VERSION: u8 = 1;

/// Flag bit: the graph stores per-edge f32 weights.
const FLAG_WEIGHTED: u8 = 1 << 0;
/// Flag bit: out-direction offsets are u64 (else u32).
const FLAG_OUT_OFFSETS_U64: u8 = 1 << 1;
/// Flag bit: in-direction offsets are u64 (else u32).
const FLAG_IN_OFFSETS_U64: u8 = 1 << 2;
const KNOWN_FLAGS: u8 = FLAG_WEIGHTED | FLAG_OUT_OFFSETS_U64 | FLAG_IN_OFFSETS_U64;

const HEADER_LEN: usize = 32;
const SECTIONS: usize = 8;
const TABLE_LEN: usize = SECTIONS * 16;

/// JSON metadata carried in section 0.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ImageMetaJson {
    dataset: String,
}

/// Decoded image header.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageMeta {
    /// Dataset id the image belongs to.
    pub dataset: String,
    /// Graph `version()` the image captured.
    pub version: u64,
    /// Node count.
    pub nodes: u64,
    /// Edge count.
    pub edges: u64,
    /// Whether per-edge (f32) weights are stored.
    pub weighted: bool,
}

/// True when every edge weight of `graph` survives an f64 → f32 → f64
/// round trip bit-for-bit (unweighted graphs trivially qualify).
///
/// This is the gate for emitting an image alongside a snapshot: images
/// store f32 weights, so a dataset recovered through one is only
/// bit-identical to snapshot replay when the narrowing is lossless. Real
/// ingest weights (link counts, small integers, halves) are f32-exact;
/// arbitrary f64s from synthetic tests may not be, and those datasets
/// simply keep the snapshot-only path.
pub fn weights_f32_exact(graph: &relgraph::DirectedGraph) -> bool {
    graph.weighted_edges().all(|(_, _, w)| ((w as f32) as f64).to_bits() == w.to_bits())
}

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

fn offsets_bytes(idx: &OffsetIndex) -> Vec<u8> {
    match idx {
        OffsetIndex::U32(v) => v.iter().flat_map(|o| o.to_le_bytes()).collect(),
        OffsetIndex::U64(v) => v.iter().flat_map(|o| o.to_le_bytes()).collect(),
    }
}

fn wsum_bytes(sums: &Option<Vec<f64>>) -> Vec<u8> {
    sums.as_ref()
        .map(|s| s.iter().flat_map(|w| w.to_bits().to_le_bytes()).collect())
        .unwrap_or_default()
}

/// Encodes `graph` at graph-version `version` into image bytes.
pub fn encode_image(dataset: &str, graph: &CompactGraph, version: u64) -> Vec<u8> {
    let meta = ImageMetaJson { dataset: dataset.to_string() };
    let out_adj = graph.out_adjacency();
    let in_adj = graph.in_adjacency();
    let mut flags = 0u8;
    if graph.is_weighted() {
        flags |= FLAG_WEIGHTED;
    }
    if matches!(out_adj.offsets, OffsetIndex::U64(_)) {
        flags |= FLAG_OUT_OFFSETS_U64;
    }
    if matches!(in_adj.offsets, OffsetIndex::U64(_)) {
        flags |= FLAG_IN_OFFSETS_U64;
    }
    let labels: Vec<(u32, String)> =
        graph.labels().iter().map(|(n, l)| (n.raw(), l.to_string())).collect();

    let sections: [Vec<u8>; SECTIONS] = [
        serde_json::to_value(&meta).to_string().into_bytes(),
        offsets_bytes(&out_adj.offsets),
        out_adj.stream.clone(),
        wsum_bytes(&out_adj.weight_sums),
        offsets_bytes(&in_adj.offsets),
        in_adj.stream.clone(),
        wsum_bytes(&in_adj.weight_sums),
        serde_json::to_value(&labels).to_string().into_bytes(),
    ];

    let mut out = Vec::with_capacity(
        HEADER_LEN + TABLE_LEN + sections.iter().map(|s| s.len() + 8).sum::<usize>() + 12,
    );
    out.extend_from_slice(&IMAGE_MAGIC);
    out.push(IMAGE_VERSION);
    out.push(flags);
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(graph.node_count() as u64).to_le_bytes());
    out.extend_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);

    // Reserve the section table, then append aligned section data and
    // backfill each (offset, len) pair.
    out.resize(HEADER_LEN + TABLE_LEN, 0);
    for (i, section) in sections.iter().enumerate() {
        pad8(&mut out);
        let off = out.len() as u64;
        out.extend_from_slice(section);
        let entry = HEADER_LEN + i * 16;
        out[entry..entry + 8].copy_from_slice(&off.to_le_bytes());
        out[entry + 8..entry + 16].copy_from_slice(&(section.len() as u64).to_le_bytes());
    }
    pad8(&mut out);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn invalid(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

/// The little-endian `u64` at byte `at`; a read past the end is an
/// invalid image, not a panic.
fn read_u64(bytes: &[u8], at: usize) -> Result<u64, SnapshotError> {
    bytes
        .get(at..)
        .and_then(|rest| rest.first_chunk::<8>())
        .map(|b| u64::from_le_bytes(*b))
        .ok_or_else(|| invalid(format!("u64 at byte {at} runs past the image end")))
}

fn decode_offsets(bytes: &[u8], wide: bool, what: &str) -> Result<OffsetIndex, SnapshotError> {
    let width = if wide { 8 } else { 4 };
    if !bytes.len().is_multiple_of(width) {
        return Err(invalid(format!("{what} section is {} bytes, not /{width}", bytes.len())));
    }
    Ok(if wide {
        OffsetIndex::U64(bytes.as_chunks::<8>().0.iter().map(|c| u64::from_le_bytes(*c)).collect())
    } else {
        OffsetIndex::U32(bytes.as_chunks::<4>().0.iter().map(|c| u32::from_le_bytes(*c)).collect())
    })
}

fn decode_wsums(bytes: &[u8], what: &str) -> Result<Option<Vec<f64>>, SnapshotError> {
    if bytes.is_empty() {
        return Ok(None);
    }
    if !bytes.len().is_multiple_of(8) {
        return Err(invalid(format!("{what} section is {} bytes, not /8", bytes.len())));
    }
    Ok(Some(bytes.as_chunks::<8>().0.iter().map(|c| f64::from_le_bytes(*c)).collect()))
}

/// Decodes image bytes back into metadata and the compact graph.
pub fn decode_image(bytes: &[u8]) -> Result<(ImageMeta, CompactGraph), SnapshotError> {
    if bytes.len() < HEADER_LEN + TABLE_LEN + 4 {
        return Err(invalid(format!("image too short: {} bytes", bytes.len())));
    }
    if bytes[..4] != IMAGE_MAGIC {
        return Err(invalid("bad image magic"));
    }
    if bytes[4] != IMAGE_VERSION {
        return Err(invalid(format!(
            "unknown image format version {} (this build reads {IMAGE_VERSION})",
            bytes[4]
        )));
    }
    let flags = bytes[5];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(invalid(format!("unknown image flags {flags:#04x}")));
    }
    let Some((body, stored_crc)) = bytes.split_last_chunk::<4>() else {
        return Err(invalid("image has no crc"));
    };
    let body_len = body.len();
    if crc32(body) != u32::from_le_bytes(*stored_crc) {
        return Err(invalid("image crc mismatch"));
    }

    let version = read_u64(bytes, 8)?;
    let nodes = read_u64(bytes, 16)?;
    let edges = read_u64(bytes, 24)?;

    let mut sections: Vec<&[u8]> = Vec::with_capacity(SECTIONS);
    for i in 0..SECTIONS {
        let entry = HEADER_LEN + i * 16;
        let off = read_u64(bytes, entry)? as usize;
        let len = read_u64(bytes, entry + 8)? as usize;
        if !off.is_multiple_of(8) {
            return Err(invalid(format!("section {i} unaligned at {off}")));
        }
        let end = off.checked_add(len).filter(|&e| e <= body_len);
        match end {
            Some(end) => sections.push(&bytes[off..end]),
            None => return Err(invalid(format!("section {i} out of bounds"))),
        }
    }

    let meta: ImageMetaJson = serde_json::from_slice(sections[0])
        .map_err(|e| invalid(format!("image meta decode: {e}")))?;
    let weighted = flags & FLAG_WEIGHTED != 0;
    let out = CompactAdjacency {
        offsets: decode_offsets(sections[1], flags & FLAG_OUT_OFFSETS_U64 != 0, "out offsets")?,
        stream: sections[2].to_vec(),
        weight_sums: decode_wsums(sections[3], "out weight sums")?,
    };
    let inc = CompactAdjacency {
        offsets: decode_offsets(sections[4], flags & FLAG_IN_OFFSETS_U64 != 0, "in offsets")?,
        stream: sections[5].to_vec(),
        weight_sums: decode_wsums(sections[6], "in weight sums")?,
    };
    let label_pairs: Vec<(u32, String)> =
        serde_json::from_slice(sections[7]).map_err(|e| invalid(format!("labels decode: {e}")))?;
    let mut labels = LabelTable::new();
    for (n, l) in label_pairs {
        if n as u64 >= nodes {
            return Err(invalid(format!("label for node {n} beyond {nodes} nodes")));
        }
        labels.set(NodeId::new(n), l);
    }

    let graph = CompactGraph::from_raw(nodes as usize, edges as usize, weighted, out, inc, labels)
        .map_err(|e| invalid(format!("image graph invalid: {e}")))?;
    let meta = ImageMeta { dataset: meta.dataset, version, nodes, edges, weighted };
    Ok((meta, graph))
}

/// Reads just the header and meta section of an image file (no CRC pass
/// over the data sections — for listings and version checks).
pub fn read_image_meta(bytes: &[u8]) -> Result<ImageMeta, SnapshotError> {
    if bytes.len() < HEADER_LEN + TABLE_LEN + 4 {
        return Err(invalid(format!("image too short: {} bytes", bytes.len())));
    }
    if bytes[..4] != IMAGE_MAGIC {
        return Err(invalid("bad image magic"));
    }
    if bytes[4] != IMAGE_VERSION {
        return Err(invalid(format!("unknown image format version {}", bytes[4])));
    }
    let off = read_u64(bytes, HEADER_LEN)? as usize;
    let len = read_u64(bytes, HEADER_LEN + 8)? as usize;
    let end = off.checked_add(len).filter(|&e| e <= bytes.len());
    let meta_bytes = match end {
        Some(end) => &bytes[off..end],
        None => return Err(invalid("meta section out of bounds")),
    };
    let meta: ImageMetaJson =
        serde_json::from_slice(meta_bytes).map_err(|e| invalid(format!("meta decode: {e}")))?;
    Ok(ImageMeta {
        dataset: meta.dataset,
        version: read_u64(bytes, 8)?,
        nodes: read_u64(bytes, 16)?,
        edges: read_u64(bytes, 24)?,
        weighted: bytes[5] & FLAG_WEIGHTED != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph::{GraphBuilder, NodeId};

    fn sample(weighted: bool) -> CompactGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_node("alice");
        let c = b.add_labeled_node("carol");
        let d = b.add_node();
        if weighted {
            b.add_weighted_edge(a, c, 2.5);
            b.add_weighted_edge(c, d, 0.125);
            b.add_weighted_edge(d, a, 7.0);
            b.add_weighted_edge(a, d, 1.0);
        } else {
            b.add_edge(a, c);
            b.add_edge(c, d);
            b.add_edge(d, a);
            b.add_edge(a, d);
        }
        CompactGraph::from_csr(&b.build())
    }

    #[test]
    fn round_trips_weighted_and_unweighted() {
        for weighted in [false, true] {
            let g = sample(weighted);
            let bytes = encode_image("friends", &g, 42);
            let (meta, back) = decode_image(&bytes).unwrap();
            assert_eq!(meta.dataset, "friends");
            assert_eq!(meta.version, 42);
            assert_eq!(meta.weighted, weighted);
            assert_eq!(back, g, "weighted={weighted}");
            let quick = read_image_meta(&bytes).unwrap();
            assert_eq!(quick, meta);
        }
    }

    #[test]
    fn sections_are_aligned() {
        let g = sample(true);
        let bytes = encode_image("x", &g, 1);
        for i in 0..SECTIONS {
            let off = read_u64(&bytes, HEADER_LEN + i * 16).unwrap();
            assert_eq!(off % 8, 0, "section {i} at {off}");
        }
    }

    #[test]
    fn image_graph_matches_csr_bitwise() {
        // The round-tripped compact graph converts back to a CSR whose
        // weight sums match the original builder's bit-for-bit (f32-exact
        // weights), which is what the recovery fast path relies on.
        let mut b = GraphBuilder::new();
        for i in 0..20u32 {
            b.add_weighted_edge(NodeId::new(i), NodeId::new((i * 7 + 1) % 20), 1.5);
            b.add_weighted_edge(NodeId::new(i), NodeId::new((i * 3 + 2) % 20), 0.25);
        }
        let csr = b.build();
        let bytes = encode_image("ds", &CompactGraph::from_csr(&csr), 9);
        let (_, back) = decode_image(&bytes).unwrap();
        let rebuilt = back.to_csr();
        assert_eq!(rebuilt.edge_count(), csr.edge_count());
        for u in csr.nodes() {
            assert_eq!(rebuilt.out_neighbors(u), csr.out_neighbors(u));
            assert_eq!(
                rebuilt.out_weight_sum(u).to_bits(),
                csr.out_weight_sum(u).to_bits(),
                "weight sum at {u:?}"
            );
        }
    }

    #[test]
    fn rejects_damage_and_unknown_versions() {
        let g = sample(true);
        let bytes = encode_image("friends", &g, 1);
        // Unknown version.
        let mut v = bytes.clone();
        v[4] = IMAGE_VERSION + 1;
        assert!(decode_image(&v).is_err());
        assert!(read_image_meta(&v).is_err());
        // Unknown flag bit.
        let mut fl = bytes.clone();
        fl[5] |= 1 << 7;
        assert!(decode_image(&fl).is_err());
        // Flipped data byte fails the CRC.
        let mut d = bytes.clone();
        let mid = d.len() / 2;
        d[mid] ^= 0x10;
        assert!(decode_image(&d).is_err());
        // Truncation.
        assert!(decode_image(&bytes[..bytes.len() - 9]).is_err());
        assert!(decode_image(b"RGIM").is_err());
        // Bad magic.
        let mut m = bytes.clone();
        m[0] = b'X';
        assert!(decode_image(&m).is_err());
    }

    #[test]
    fn rejects_crc_clean_but_inconsistent_streams() {
        // Corrupt a stream byte AND refresh the trailer CRC: the image
        // passes integrity checks but must still be rejected by the
        // structural validation inside CompactGraph::from_raw.
        let g = sample(false);
        let mut bytes = encode_image("ds", &g, 1);
        let stream_off = read_u64(&bytes, HEADER_LEN + 2 * 16).unwrap() as usize;
        bytes[stream_off] = 0xFF; // absurd leading degree varint byte
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_image(&bytes).is_err());
    }
}
