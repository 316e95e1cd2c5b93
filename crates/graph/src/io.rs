//! Graph I/O: SNAP-style edge-list text files.
//!
//! The SNAP text format is what the paper's datasets ship as: one `src dst`
//! (optionally `src dst weight`) pair per line, `#`-prefixed comment lines,
//! arbitrary whitespace.

use crate::edge_list::EdgeList;
use crate::{GraphError, NodeId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parse a SNAP-style edge list from a reader.
///
/// Returns the edge list and, if any line carried a third column, the parsed
/// per-edge weights (in the same order as the edges; lines without a weight
/// get 1.0). [`crate::CsrGraph::from_edge_list_with`] carries them to the
/// in-slot order [`crate::EdgeWeights`] stores.
///
/// Lines are parsed as bytes out of one reused buffer: fields are separated
/// by ASCII whitespace, vertex ids are ASCII digits (an optional leading `+`
/// is accepted, as `str::parse` does), and only a weight column goes through
/// `str::parse`. Comment lines are skipped without being decoded.
///
/// Non-ASCII input, precisely: only ASCII whitespace (space, `\t`..=`\r`)
/// separates or trims fields — Unicode spaces such as U+00A0 or U+2003 are
/// field bytes and make the line a `GraphError::Parse`; a non-UTF-8 byte in
/// a field is likewise a `GraphError::Parse` for that line (never
/// `GraphError::Io`, which is left to real read failures); and a non-UTF-8
/// byte inside a comment line is ignored with the rest of the comment.
pub fn read_snap_edge_list<R: Read>(reader: R) -> Result<(EdgeList, Option<Vec<f32>>), GraphError> {
    let mut reader = BufReader::new(reader);
    let mut el = EdgeList::default();
    // Allocated on the first weighted line; the edges before it weigh 1.0.
    let mut weights: Option<Vec<f32>> = None;
    let mut line = Vec::new();
    let mut lineno = 0usize;

    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        lineno += 1;
        let mut rest = line.as_slice();
        let Some(first) = next_field(&mut rest) else { continue };
        if first[0] == b'#' || first[0] == b'%' {
            continue;
        }
        let src = parse_vertex(Some(first), lineno, "source")?;
        let dst = parse_vertex(next_field(&mut rest), lineno, "destination")?;
        if src > u32::MAX as u64 || dst > u32::MAX as u64 {
            return Err(GraphError::Parse {
                line: lineno,
                message: format!("vertex id {} exceeds u32 range", src.max(dst)),
            });
        }
        el.push(src as NodeId, dst as NodeId);
        match next_field(&mut rest) {
            Some(raw) => {
                let w = std::str::from_utf8(raw)
                    .ok()
                    .and_then(|w| w.parse::<f32>().ok())
                    .ok_or_else(|| GraphError::Parse {
                        line: lineno,
                        message: format!("invalid weight '{}'", String::from_utf8_lossy(raw)),
                    })?;
                weights.get_or_insert_with(|| vec![1.0; el.num_edges() - 1]).push(w);
            }
            None => {
                if let Some(weights) = weights.as_mut() {
                    weights.push(1.0);
                }
            }
        }
    }

    Ok((el, weights))
}

/// The separators `str::split_whitespace` honours within ASCII: space and
/// `\t`..=`\r` (tab, LF, VT, FF, CR).
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Split the next whitespace-delimited field off the front of `rest`.
#[inline]
fn next_field<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let start = rest.iter().position(|&b| !is_space(b))?;
    let tail = &rest[start..];
    let len = tail.iter().position(|&b| is_space(b)).unwrap_or(tail.len());
    let (field, after) = tail.split_at(len);
    *rest = after;
    Some(field)
}

/// Parse one vertex column as a decimal `u64` (`None` on an empty field, a
/// non-digit or overflow).
#[inline]
fn parse_u64(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(digit as u64)
    })
}

fn parse_vertex(field: Option<&[u8]>, line: usize, what: &str) -> Result<u64, GraphError> {
    let raw = field
        .ok_or_else(|| GraphError::Parse { line, message: format!("missing {what} vertex") })?;
    parse_u64(raw).ok_or_else(|| GraphError::Parse {
        line,
        message: format!("invalid {what} vertex '{}'", String::from_utf8_lossy(raw)),
    })
}

/// Read a SNAP edge-list file from disk.
pub fn read_snap_file(path: impl AsRef<Path>) -> Result<(EdgeList, Option<Vec<f32>>), GraphError> {
    let file = std::fs::File::open(path)?;
    read_snap_edge_list(file)
}

/// Write an edge list in SNAP text format. If `weights` is given it must have
/// one entry per edge.
pub fn write_snap_edge_list<W: Write>(
    writer: W,
    edge_list: &EdgeList,
    weights: Option<&[f32]>,
) -> Result<(), GraphError> {
    if let Some(w) = weights {
        if w.len() != edge_list.num_edges() {
            return Err(GraphError::WeightLengthMismatch {
                expected: edge_list.num_edges(),
                actual: w.len(),
            });
        }
    }
    let mut out = BufWriter::new(writer);
    writeln!(out, "# Nodes: {} Edges: {}", edge_list.num_nodes(), edge_list.num_edges())?;
    for (i, (s, d)) in edge_list.iter().enumerate() {
        match weights {
            Some(w) => writeln!(out, "{s}\t{d}\t{}", w[i])?,
            None => writeln!(out, "{s}\t{d}")?,
        }
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_text_with_comments_and_blank_lines() {
        let text = "# Directed graph\n# Nodes: 4 Edges: 3\n\n0\t1\n1 2\n  3   0  \n";
        let (el, w) = read_snap_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.num_edges(), 3);
        assert_eq!(el.num_nodes(), 4);
        assert!(w.is_none());
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (3, 0)]);
    }

    #[test]
    fn parses_weights_when_present() {
        let text = "0 1 0.5\n1 2 0.25\n";
        let (el, w) = read_snap_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.num_edges(), 2);
        let w = w.unwrap();
        assert!((w[0] - 0.5).abs() < 1e-6);
        assert!((w[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn rejects_garbage_lines() {
        let res = read_snap_edge_list("0 x\n".as_bytes());
        assert!(matches!(res, Err(GraphError::Parse { line: 1, .. })));

        let res = read_snap_edge_list("0\n".as_bytes());
        assert!(matches!(res, Err(GraphError::Parse { .. })));

        let res = read_snap_edge_list("0 1 notaweight\n".as_bytes());
        assert!(matches!(res, Err(GraphError::Parse { .. })));
    }

    #[test]
    fn rejects_ids_beyond_u32() {
        let res = read_snap_edge_list("0 5000000000\n".as_bytes());
        assert!(matches!(res, Err(GraphError::Parse { .. })));
    }

    #[test]
    fn accepts_every_grammar_case() {
        // (input, edges, weights)
        type Case = (&'static [u8], &'static [(u32, u32)], Option<&'static [f32]>);
        let cases: [Case; 12] = [
            (b"", &[], None),
            (b"# only a comment\n% and another\n\n", &[], None),
            (b"0 1\n2 3", &[(0, 1), (2, 3)], None),
            (b"0\t1\r\n2 \t 3\r\n", &[(0, 1), (2, 3)], None),
            (b"  \t 7   8  \t\n", &[(7, 8)], None),
            (b"   # indented comment\n1 2\n", &[(1, 2)], None),
            (b"# caf\xe9 is not UTF-8\n1 2\n", &[(1, 2)], None),
            (b"+4 007\n", &[(4, 7)], None),
            (b"4294967295 0\n", &[(u32::MAX, 0)], None),
            (b"0 1 0.5\n1 2 2.5e-1 trailing columns\n", &[(0, 1), (1, 2)], Some(&[0.5, 0.25])),
            // A weight appearing late back-fills 1.0, and a later bare line
            // keeps getting 1.0.
            (
                b"0 1\n1 2\n2 3 0.5\n3 4\n",
                &[(0, 1), (1, 2), (2, 3), (3, 4)],
                Some(&[1.0, 1.0, 0.5, 1.0]),
            ),
            (b"0 1 inf\n", &[(0, 1)], Some(&[f32::INFINITY])),
        ];
        for (text, edges, weights) in cases {
            let shown = String::from_utf8_lossy(text);
            let (el, w) = read_snap_edge_list(text).unwrap_or_else(|e| panic!("{shown:?}: {e}"));
            assert_eq!(el.iter().collect::<Vec<_>>(), edges, "{shown:?}");
            assert_eq!(w.as_deref(), weights, "{shown:?}");
        }
    }

    #[test]
    fn errors_carry_the_line_and_the_message() {
        // (input, line, message)
        let cases: [(&[u8], usize, &str); 12] = [
            (b"0 1\n5\n", 2, "missing destination vertex"),
            (b"# c\n\n0 x1\n", 3, "invalid destination vertex 'x1'"),
            (b"a 1\n", 1, "invalid source vertex 'a'"),
            (b"1,2\n", 1, "invalid source vertex '1,2'"),
            (b"-1 2\n", 1, "invalid source vertex '-1'"),
            (b"0 1\r\n+ 2\r\n", 2, "invalid source vertex '+'"),
            (b"0 99999999999999999999\n", 1, "invalid destination vertex '99999999999999999999'"),
            (b"0 1\n2 3\n0 4294967296\n", 3, "vertex id 4294967296 exceeds u32 range"),
            (b"5000000000 1\n", 1, "vertex id 5000000000 exceeds u32 range"),
            (b"0 1 0.5\n1 2 heavy\n", 2, "invalid weight 'heavy'"),
            (b"0 1 \xff\n", 1, "invalid weight '\u{fffd}'"),
            // A Unicode space is a field byte, not a separator.
            ("1\u{a0}2\n".as_bytes(), 1, "invalid source vertex '1\u{a0}2'"),
        ];
        for (text, want_line, want_message) in cases {
            let shown = String::from_utf8_lossy(text);
            match read_snap_edge_list(text) {
                Err(GraphError::Parse { line, message }) => {
                    assert_eq!((line, message.as_str()), (want_line, want_message), "{shown:?}");
                }
                other => panic!("{shown:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn snap_text_round_trips_edges_and_weights(
            pairs in proptest::collection::vec((0u32..5000, 0u32..5000), 0..200),
            raw_weights in proptest::collection::vec(0u32..1_000_000, 200..201),
            weighted in proptest::prelude::any::<bool>(),
        ) {
            let el = EdgeList::from_pairs(0, pairs);
            let weights: Vec<f32> =
                raw_weights[..el.num_edges()].iter().map(|&w| w as f32 / 1024.0).collect();
            let mut buf = Vec::new();
            write_snap_edge_list(&mut buf, &el, weighted.then_some(weights.as_slice())).unwrap();
            let (parsed, parsed_weights) = read_snap_edge_list(buf.as_slice()).unwrap();
            proptest::prop_assert_eq!(parsed.edges(), el.edges());
            // No weighted line (unweighted, or no edge at all) reads as None.
            let expected = (weighted && el.num_edges() > 0).then_some(weights);
            proptest::prop_assert_eq!(parsed_weights, expected);
        }
    }

    #[test]
    fn snap_round_trip() {
        let el = EdgeList::from_pairs(5, vec![(0, 1), (2, 3), (4, 0)]);
        let mut buf = Vec::new();
        write_snap_edge_list(&mut buf, &el, None).unwrap();
        let (parsed, w) = read_snap_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed.edges(), el.edges());
        assert!(w.is_none());
    }

    #[test]
    fn snap_round_trip_with_weights() {
        let el = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        let weights = vec![0.125f32, 0.75];
        let mut buf = Vec::new();
        write_snap_edge_list(&mut buf, &el, Some(&weights)).unwrap();
        let (parsed, w) = read_snap_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed.edges(), el.edges());
        assert_eq!(w.unwrap(), weights);
    }

    #[test]
    fn snap_write_rejects_weight_mismatch() {
        let el = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        let res = write_snap_edge_list(Vec::new(), &el, Some(&[0.5]));
        assert!(matches!(res, Err(GraphError::WeightLengthMismatch { .. })));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("imm_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        let el = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        write_snap_edge_list(std::fs::File::create(&path).unwrap(), &el, None).unwrap();
        let (parsed, _) = read_snap_file(&path).unwrap();
        assert_eq!(parsed.edges(), el.edges());
        std::fs::remove_file(&path).ok();
    }
}
