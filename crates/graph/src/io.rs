//! Graph I/O: SNAP-style edge-list text files.
//!
//! The SNAP text format is what the paper's datasets ship as: one `src dst`
//! (optionally `src dst weight`) pair per line, `#`-prefixed comment lines,
//! arbitrary whitespace.
//!
//! # Parallel load
//!
//! [`read_snap_file`] splits a regular file into byte ranges, one per
//! available core (`std::thread::available_parallelism`), but none smaller
//! than 1 MiB, so a file under 2 MiB is parsed on the calling thread. Each
//! range starts just after a `\n`, holds whole lines, and is read by
//! position (`FileExt::read_at`) a block at a time, so the file is never
//! held whole next to its edges. Every range parses with the one grammar
//! [`read_snap_edge_list`] documents and returns its edges, its weights,
//! its line count and its first error; the ranges are then concatenated in
//! file order, so the edge list is the file's lines in order, whatever the
//! split. An error names the same line and message a one-range parse
//! would: the line counts of the ranges before it are added to its
//! in-range line, and the earliest range with an error wins.
//!
//! The split follows the machine, not `--threads` or `IMM_THREADS`: those
//! size `imm-exec`'s pool, and this crate does not link `imm-exec` (that
//! dependency would change the benchmark's pinned lock file). A pipe or
//! other non-regular file cannot be read by position and goes through
//! [`read_snap_edge_list`] as one range.

use crate::edge_list::{Edge, EdgeList};
use crate::partition::{block_ranges, map_scoped, split_parts};
use crate::{GraphError, NodeId};
use std::io::{self, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Bytes a range reads per call (a longer line grows its buffer). Kept
/// under glibc's initial 128 KiB mmap threshold: freeing a larger buffer
/// would raise that threshold and move later allocations onto the heap.
const BLOCK_BYTES: usize = 1 << 16;

/// Parse a SNAP-style edge list from a reader.
///
/// Returns the edge list and, if any line carried a third column, the parsed
/// per-edge weights (in the same order as the edges; lines without a weight
/// get 1.0). [`crate::CsrGraph::from_edge_list_with`] carries them to the
/// in-slot order [`crate::EdgeWeights`] stores.
///
/// Lines are parsed as bytes a block at a time: fields are separated by
/// ASCII whitespace, vertex ids are ASCII digits (an optional leading `+`
/// is accepted, as `str::parse` does), and only a weight column goes through
/// `str::parse`. Comment lines are skipped without being decoded.
///
/// Non-ASCII input, precisely: only ASCII whitespace (space, `\t`..=`\r`)
/// separates or trims fields — Unicode spaces such as U+00A0 or U+2003 are
/// field bytes and make the line a `GraphError::Parse`; a non-UTF-8 byte in
/// a field is likewise a `GraphError::Parse` for that line (never
/// `GraphError::Io`, which is left to real read failures); and a non-UTF-8
/// byte inside a comment line is ignored with the rest of the comment.
pub fn read_snap_edge_list<R: Read>(
    mut reader: R,
) -> Result<(EdgeList, Option<Vec<f32>>), GraphError> {
    let parsed = parse_blocks(|buf| loop {
        match reader.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            done => return done,
        }
    });
    concat(vec![parsed])
}

/// Read a SNAP edge-list file from disk, a range of lines per core (see the
/// module docs); the result equals [`read_snap_edge_list`] on its bytes.
pub fn read_snap_file(path: impl AsRef<Path>) -> Result<(EdgeList, Option<Vec<f32>>), GraphError> {
    let file = std::fs::File::open(path)?;
    let meta = file.metadata()?;
    if !meta.is_file() {
        return read_snap_edge_list(file);
    }
    let len = meta.len();
    let ranges = split_parts(usize::try_from(len).unwrap_or(usize::MAX));
    read_in_ranges(|buf, at| file.read_at(buf, at), len, ranges)
}

/// Parse the `len` bytes `read_at` reads by position, split into `ranges`
/// ranges of whole lines parsed concurrently.
pub(crate) fn read_in_ranges(
    read_at: impl Fn(&mut [u8], u64) -> io::Result<usize> + Sync,
    len: u64,
    ranges: usize,
) -> Result<(EdgeList, Option<Vec<f32>>), GraphError> {
    let read = |buf: &mut [u8], at: u64| loop {
        match read_at(buf, at) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            done => return done,
        }
    };
    let mut bounds = vec![0u64];
    for nominal in block_ranges(usize::try_from(len).unwrap_or(usize::MAX), ranges).iter().skip(1) {
        bounds.push(line_start(read, nominal.start as u64, len)?);
    }
    bounds.push(len);
    let parsed = map_scoped(bounds.windows(2), |range| {
        let (mut at, end) = (range[0], range[1]);
        parse_blocks(|buf| {
            let want = buf.len().min(usize::try_from(end - at).unwrap_or(usize::MAX));
            if want == 0 {
                return Ok(0);
            }
            let got = read(&mut buf[..want], at)?;
            at += got as u64;
            Ok(got)
        })
    });
    concat(parsed)
}

/// The first line start at or after `from` (`from` itself if a `\n` ends
/// the byte before it), or `len` if no line starts there.
fn line_start(
    read_at: impl Fn(&mut [u8], u64) -> io::Result<usize>,
    from: u64,
    len: u64,
) -> io::Result<u64> {
    if from == 0 {
        return Ok(0);
    }
    let mut probe = [0u8; 4096];
    let mut at = from - 1;
    while at < len {
        let got = read_at(&mut probe, at)?;
        if got == 0 {
            break;
        }
        if let Some(i) = probe[..got].iter().position(|&b| b == b'\n') {
            return Ok(at + i as u64 + 1);
        }
        at += got as u64;
    }
    Ok(len)
}

/// What one range of lines parsed to.
#[derive(Default)]
struct Parsed {
    edges: Vec<Edge>,
    /// `None` until the range's first weighted line, then one per edge.
    weights: Option<Vec<f32>>,
    /// One past the largest vertex id seen.
    num_nodes: usize,
    /// Lines consumed, the erroneous one included.
    lines: usize,
    /// The first error; a `GraphError::Parse` counts lines from the range's
    /// start.
    error: Option<GraphError>,
}

impl Parsed {
    #[inline]
    fn push(&mut self, src: NodeId, dst: NodeId, weight: Option<f32>) {
        self.num_nodes = self.num_nodes.max(src.max(dst) as usize + 1);
        self.edges.push(Edge::new(src, dst));
        match weight {
            Some(w) => {
                let edges = self.edges.len();
                self.weights.get_or_insert_with(|| vec![1.0; edges - 1]).push(w);
            }
            None => {
                if let Some(weights) = self.weights.as_mut() {
                    weights.push(1.0);
                }
            }
        }
    }
}

/// Parse the lines `fill` yields. `fill` writes the next bytes into the
/// front of its buffer and returns how many it wrote, 0 at the end; lines
/// may straddle its calls.
fn parse_blocks(mut fill: impl FnMut(&mut [u8]) -> io::Result<usize>) -> Parsed {
    let mut out = Parsed::default();
    let mut buf = vec![0u8; BLOCK_BYTES];
    // Bytes of an unfinished line kept at the front of `buf`.
    let mut held = 0;
    loop {
        if held == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let got = match fill(&mut buf[held..]) {
            Ok(got) => got,
            Err(e) => {
                out.error = Some(e.into());
                return out;
            }
        };
        if got == 0 {
            // A last line without a `\n` parses as if it had one.
            if held > 0 {
                buf.truncate(held);
                buf.push(b'\n');
                parse_lines(&buf, &mut out);
            }
            return out;
        }
        let filled = held + got;
        let Some(last) = buf[held..filled].iter().rposition(|&b| b == b'\n') else {
            held = filled;
            continue;
        };
        let end = held + last + 1;
        if !parse_lines(&buf[..end], &mut out) {
            return out;
        }
        buf.copy_within(end..filled, 0);
        held = filled - end;
    }
}

/// Parse `bytes`, whole lines each ended by a `\n`, into `out`. Returns
/// false at the first error, which it leaves in `out.error`.
fn parse_lines(bytes: &[u8], out: &mut Parsed) -> bool {
    let mut at = 0;
    while at < bytes.len() {
        out.lines += 1;
        if let Some(next) = quick_line(bytes, at, out) {
            at = next;
            continue;
        }
        // Anything the quick path does not take: `+`, overlong ids, an
        // unparsable weight, a malformed line.
        let end = at + line_len(&bytes[at..]);
        match parse_line(&bytes[at..end], out.lines) {
            Ok(Some((src, dst, weight))) => out.push(src, dst, weight),
            Ok(None) => {}
            Err(e) => {
                out.error = Some(e);
                return false;
            }
        }
        at = end;
    }
    true
}

/// The length of the line at the front of `bytes`, its `\n` included.
#[inline]
fn line_len(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| i + 1)
}

/// Parse the common line shapes at `bytes[at..]` — blank, comment, or two
/// plain decimal u32 ids and an optional weight — and return where the
/// next line starts; `None` (with `out` untouched) hands the line to
/// [`parse_line`]. A `\n` must end the line.
#[inline]
fn quick_line(bytes: &[u8], at: usize, out: &mut Parsed) -> Option<usize> {
    let at = skip_blanks(bytes, at);
    if matches!(bytes[at], b'\n' | b'#' | b'%') {
        return Some(at + line_len(&bytes[at..]));
    }
    let (src, at) = quick_vertex(bytes, at)?;
    let (dst, at) = quick_vertex(bytes, skip_blanks(bytes, at))?;
    let mut at = skip_blanks(bytes, at);
    let weight = if bytes[at] == b'\n' {
        None
    } else {
        let len = bytes[at..].iter().position(|&b| is_space(b))?;
        let w = std::str::from_utf8(&bytes[at..at + len]).ok()?.parse::<f32>().ok()?;
        at += len;
        Some(w)
    };
    out.push(src, dst, weight);
    Some(at + line_len(&bytes[at..]))
}

/// Skip the whitespace before a field, stopping at the line's `\n`.
#[inline]
fn skip_blanks(bytes: &[u8], mut at: usize) -> usize {
    while bytes[at] != b'\n' && is_space(bytes[at]) {
        at += 1;
    }
    at
}

/// A field of 1–10 ASCII digits worth at most `u32::MAX`, ended by
/// whitespace, and where it ends.
#[inline]
fn quick_vertex(bytes: &[u8], start: usize) -> Option<(NodeId, usize)> {
    let mut value = 0u64;
    let mut at = start;
    while let digit @ 0..=9 = bytes[at].wrapping_sub(b'0') {
        value = value * 10 + u64::from(digit);
        at += 1;
        if at - start > 10 {
            return None;
        }
    }
    if at == start || !is_space(bytes[at]) {
        return None;
    }
    Some((NodeId::try_from(value).ok()?, at))
}

/// The grammar of one line (its `\n`, if any, included): the edge and its
/// weight, or `None` for a blank or comment line.
fn parse_line(
    line: &[u8],
    lineno: usize,
) -> Result<Option<(NodeId, NodeId, Option<f32>)>, GraphError> {
    let mut rest = line;
    let Some(first) = next_field(&mut rest) else { return Ok(None) };
    if first[0] == b'#' || first[0] == b'%' {
        return Ok(None);
    }
    let src = parse_vertex(Some(first), lineno, "source")?;
    let dst = parse_vertex(next_field(&mut rest), lineno, "destination")?;
    if src > u32::MAX as u64 || dst > u32::MAX as u64 {
        return Err(GraphError::Parse {
            line: lineno,
            message: format!("vertex id {} exceeds u32 range", src.max(dst)),
        });
    }
    let weight = next_field(&mut rest)
        .map(|raw| {
            std::str::from_utf8(raw).ok().and_then(|w| w.parse::<f32>().ok()).ok_or_else(|| {
                GraphError::Parse {
                    line: lineno,
                    message: format!("invalid weight '{}'", String::from_utf8_lossy(raw)),
                }
            })
        })
        .transpose()?;
    Ok(Some((src as NodeId, dst as NodeId, weight)))
}

/// Join the ranges' results in file order: the first error (its line
/// counted from the file's start), or every range's edges appended to the
/// first range's, with weights if any range had one.
fn concat(mut parts: Vec<Parsed>) -> Result<(EdgeList, Option<Vec<f32>>), GraphError> {
    let mut lines_before = 0;
    for part in &mut parts {
        match part.error.take() {
            Some(GraphError::Parse { line, message }) => {
                return Err(GraphError::Parse { line: lines_before + line, message });
            }
            Some(e) => return Err(e),
            None => lines_before += part.lines,
        }
    }
    let total: usize = parts.iter().map(|p| p.edges.len()).sum();
    let num_nodes = parts.iter().map(|p| p.num_nodes).max().unwrap_or(0);
    let weighted = parts.iter().any(|p| p.weights.is_some());
    let mut parts = parts.into_iter();
    let first = parts.next().expect("at least one range");
    let mut weights = weighted.then(|| {
        let mut w = first.weights.unwrap_or_else(|| vec![1.0; first.edges.len()]);
        w.reserve_exact(total - w.len());
        w
    });
    let mut edges = first.edges;
    edges.reserve_exact(total - edges.len());
    for part in parts {
        if let Some(weights) = weights.as_mut() {
            match part.weights {
                Some(w) => weights.extend_from_slice(&w),
                None => weights.resize(weights.len() + part.edges.len(), 1.0),
            }
        }
        edges.extend_from_slice(&part.edges);
    }
    Ok((EdgeList::from_parts(edges, num_nodes), weights))
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
    use crate::csr::tests::reference_csr;
    use crate::CsrGraph;
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};

    type Loaded = (EdgeList, Option<Vec<f32>>);
    /// A load compared exactly: its edges, vertex count and weight bits, or
    /// its error's text.
    type Outcome = Result<(Vec<Edge>, usize, Option<Vec<u32>>), String>;

    /// The line-at-a-time reader the block parser replaced, kept as the
    /// oracle: one `read_until` per line through the field helpers.
    fn reference_read<R: Read>(reader: R) -> Result<Loaded, GraphError> {
        let mut reader = BufReader::new(reader);
        let mut el = EdgeList::default();
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

    /// `text` read by position at most `step` bytes per call (short reads
    /// make lines straddle blocks), parsed in `ranges` ranges.
    fn read_split(text: &[u8], ranges: usize, step: usize) -> Result<Loaded, GraphError> {
        let read_at = |buf: &mut [u8], at: u64| {
            let from = (at as usize).min(text.len());
            let n = buf.len().min(step).min(text.len() - from);
            buf[..n].copy_from_slice(&text[from..from + n]);
            Ok(n)
        };
        read_in_ranges(read_at, text.len() as u64, ranges)
    }

    /// Every way this module reads `text`, named: the reference, the
    /// stream reader, and 1..=8 ranges with whole and 3-byte reads.
    fn every_read(text: &[u8]) -> Vec<(String, Result<Loaded, GraphError>)> {
        let mut reads = vec![
            ("reference".to_string(), reference_read(text)),
            ("stream".to_string(), read_snap_edge_list(text)),
        ];
        for ranges in 1..=8 {
            for step in [usize::MAX, 3] {
                reads.push((
                    format!("{ranges} ranges, step {step}"),
                    read_split(text, ranges, step),
                ));
            }
        }
        reads
    }

    fn outcome(loaded: &Result<Loaded, GraphError>) -> Outcome {
        match loaded {
            Ok((el, w)) => Ok((
                el.edges().to_vec(),
                el.num_nodes(),
                w.as_ref().map(|w| w.iter().map(|x| x.to_bits()).collect()),
            )),
            Err(e) => Err(e.to_string()),
        }
    }

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
            for (how, loaded) in every_read(text) {
                let shown = format!("{:?} {how}", String::from_utf8_lossy(text));
                let (el, w) = loaded.unwrap_or_else(|e| panic!("{shown}: {e}"));
                assert_eq!(el.iter().collect::<Vec<_>>(), edges, "{shown}");
                assert_eq!(w.as_deref(), weights, "{shown}");
            }
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
            for (how, loaded) in every_read(text) {
                let shown = format!("{:?} {how}", String::from_utf8_lossy(text));
                match loaded {
                    Err(GraphError::Parse { line, message }) => {
                        assert_eq!((line, message.as_str()), (want_line, want_message), "{shown}");
                    }
                    other => panic!("{shown}: expected a parse error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn the_only_weight_in_the_last_range_back_fills_every_range() {
        let mut text = String::new();
        for i in 0..200u32 {
            text.push_str(&format!("{i} {}\n", i + 1));
        }
        text.push_str("7 8 0.25");
        let mut want = vec![1.0f32; 200];
        want.push(0.25);
        for (how, loaded) in every_read(text.as_bytes()) {
            let (el, w) = loaded.unwrap_or_else(|e| panic!("{how}: {e}"));
            assert_eq!(el.num_edges(), 201, "{how}");
            assert_eq!(w.as_deref(), Some(want.as_slice()), "{how}");
        }
    }

    #[test]
    fn a_line_longer_than_a_block_is_read_whole() {
        let comment = format!("# {}\n", "x".repeat(2 * BLOCK_BYTES + 5));
        let weight = format!("{}\n", "1".repeat(BLOCK_BYTES + 3));
        let text = format!("0 1\n{comment}2 3\n4 5 {weight}{comment}6 7");
        let want = outcome(&reference_read(text.as_bytes()));
        assert_eq!(want.as_ref().map(|o| o.0.len()), Ok(4));
        for ranges in 1..=3 {
            assert_eq!(outcome(&read_split(text.as_bytes(), ranges, usize::MAX)), want);
        }
    }

    #[test]
    fn files_split_into_ranges_read_like_a_stream() {
        let dir = std::env::temp_dir().join("imm_graph_io_ranges_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ranges.txt");
        let text = "# c\n0 1\n\n1 2 0.5\r\n+2 3\n3 0\n   % c\n4 4 1e-1";
        std::fs::write(&path, text).unwrap();
        let want = outcome(&reference_read(text.as_bytes()));
        assert_eq!(outcome(&read_snap_file(&path)), want);
        let file = std::fs::File::open(&path).unwrap();
        for ranges in 1..=8 {
            let loaded = read_in_ranges(|b, at| file.read_at(b, at), text.len() as u64, ranges);
            assert_eq!(outcome(&loaded), want, "{ranges} ranges");
        }
        std::fs::remove_file(&path).ok();
    }

    /// One random line: an edge in one of the accepted spellings, a
    /// comment, a blank line, or (`garbage`) a line that is an error.
    fn line_text(kind: u8, src: u32, dst: u32, style: u8, garbage: u8) -> String {
        const SEPARATORS: [&str; 4] = [" ", "\t", "  \t ", "\x0b"];
        const WEIGHTS: [&str; 5] = ["0.5", "1", "2.5e-1", "0", "inf"];
        const GARBAGE: [&str; 8] = [
            "x 1",
            "1",
            "1 2 heavy",
            "5000000000 1",
            "1,2",
            "-1 2",
            "+ 2",
            "0 99999999999999999999",
        ];
        let sep = SEPARATORS[usize::from(style % 4)];
        let ending = if style & 4 != 0 { "\r\n" } else { "\n" };
        match kind {
            0 => format!("# comment {src}{ending}"),
            1 => format!("  % comment{ending}"),
            2 => format!("{}{ending}", if style & 8 != 0 { " \t" } else { "" }),
            3 => format!("{}{ending}", GARBAGE[usize::from(garbage % 8)]),
            _ => {
                let plus = if style & 16 != 0 { "+" } else { "" };
                let weight = if kind & 1 != 0 {
                    format!("{sep}{}", WEIGHTS[usize::from(style >> 5) % WEIGHTS.len()])
                } else {
                    String::new()
                };
                let trailing = if style & 8 != 0 { " extra column " } else { "" };
                format!("{plus}{src}{sep}{dst}{weight}{trailing}{ending}")
            }
        }
    }

    proptest! {
        #[test]
        fn random_files_read_like_the_line_reader(
            lines in proptest::collection::vec(
                (4u8..12, 0u32..40, 0u32..40, any::<u8>()),
                0..120,
            ),
            comments in proptest::collection::vec((0usize..120, 0u8..3), 0..12),
            garbage in (any::<bool>(), 0usize..120, any::<u8>()),
            repeats in proptest::collection::vec((0usize..120, 0usize..120), 0..20),
            trailing_newline in any::<bool>(),
            ranges in 1usize..=8,
            blocks in 1usize..=8,
            step in 0usize..16,
        ) {
            let mut texts: Vec<String> = lines
                .iter()
                .map(|&(kind, src, dst, style)| line_text(kind, src, dst, style, 0))
                .collect();
            // Duplicate lines, out of order.
            for &(from, to) in &repeats {
                if !texts.is_empty() {
                    let copy = texts[from % texts.len()].clone();
                    texts.insert(to % (texts.len() + 1), copy);
                }
            }
            for &(at, kind) in &comments {
                texts.insert(at % (texts.len() + 1), line_text(kind, 0, 0, at as u8, 0));
            }
            if let (true, at, which) = garbage {
                texts.insert(at % (texts.len() + 1), line_text(3, 0, 0, 0, which));
            }
            let mut text = texts.concat();
            if !trailing_newline {
                text.truncate(text.trim_end_matches(['\r', '\n']).len());
            }
            let want = reference_read(text.as_bytes());
            // Step 0 reads whole blocks.
            let got = read_split(text.as_bytes(), ranges, if step == 0 { usize::MAX } else { step });
            prop_assert_eq!(outcome(&got), outcome(&want));
            prop_assert_eq!(outcome(&read_snap_edge_list(text.as_bytes())), outcome(&want));
            if let (Ok((el, weights)), Ok((want_el, want_weights))) = (got, want) {
                let ids: Vec<usize> = (0..el.num_edges()).collect();
                prop_assert_eq!(
                    CsrGraph::from_edge_list_in_blocks(&el, &ids, blocks),
                    reference_csr(&want_el, &ids)
                );
                if let (Some(w), Some(want_w)) = (weights, want_weights) {
                    let (graph, in_slot) = CsrGraph::from_edge_list_in_blocks(&el, &w, blocks);
                    let (want_graph, want_in_slot) = reference_csr(&want_el, &want_w);
                    prop_assert_eq!(graph, want_graph);
                    let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&in_slot), bits(&want_in_slot));
                }
            }
        }
    }

    #[test]
    fn a_non_regular_file_is_read_as_a_stream() {
        let (el, w) = read_snap_file("/dev/null").unwrap();
        assert!(el.is_empty() && w.is_none());
    }

    proptest! {
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
