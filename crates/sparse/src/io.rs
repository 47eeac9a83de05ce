//! Matrix Market (`.mtx`) coordinate-format I/O.
//!
//! The paper's datasets come from the University of Florida collection in
//! this format. The synthetic registry makes downloads unnecessary, but the
//! reader lets users run every harness on the *real* files if they have
//! them (`general` and `symmetric` qualifiers, `real` / `integer` /
//! `pattern` fields).

use std::io::{BufRead, Write};

use crate::{Coo, Csr};

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural / syntactic problem with the file.
    Parse {
        /// 1-based line the problem was found on (one past the last line
        /// when the file ends early).
        line: usize,
        /// What is wrong.
        msg: String,
    },
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> MmError {
    MmError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Line `no` of the file, or an error naming it when it is not UTF-8.
fn text(line: std::io::Result<String>, no: usize) -> Result<String, MmError> {
    line.map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidData => parse_err(no, "line is not valid UTF-8"),
        _ => MmError::Io(e),
    })
}

/// Parses `rows cols nnz`. Row and column indices are stored as `u32`
/// (see [`Coo`]), so larger dimensions are rejected here, before anything
/// is allocated for them.
fn parse_size_line(t: &str) -> Result<(usize, usize, usize), String> {
    let dims: Vec<usize> = t
        .split_whitespace()
        .map(|tok| tok.parse().map_err(|_| format!("bad size token {tok}")))
        .collect::<Result<_, _>>()?;
    let [rows, cols, nnz] = dims[..] else {
        return Err("size line must have rows cols nnz".into());
    };
    let max = u32::MAX as usize;
    if rows > max || cols > max {
        return Err(format!(
            "{rows}x{cols} matrix: rows and cols must not exceed {max}"
        ));
    }
    Ok((rows, cols, nnz))
}

/// Parses one entry line of a `rows × cols` matrix into 1-based `(r, c, v)`.
fn parse_entry(
    t: &str,
    rows: usize,
    cols: usize,
    pattern: bool,
) -> Result<(usize, usize, f64), String> {
    let mut it = t.split_whitespace();
    let r: usize = it
        .next()
        .ok_or("missing row")?
        .parse()
        .map_err(|_| "bad row index")?;
    let c: usize = it
        .next()
        .ok_or("missing col")?
        .parse()
        .map_err(|_| "bad col index")?;
    let v: f64 = if pattern {
        1.0
    } else {
        it.next()
            .ok_or("missing value")?
            .parse()
            .map_err(|_| "bad value")?
    };
    if r == 0 || c == 0 || r > rows || c > cols {
        return Err(format!("entry ({r}, {c}) out of bounds"));
    }
    Ok((r, c, v))
}

/// Reads a Matrix Market coordinate file.
///
/// Supports the header `%%MatrixMarket matrix coordinate
/// {real|integer|pattern} {general|symmetric}`. Pattern entries get value
/// 1.0; symmetric files (square only) are expanded to both triangles.
///
/// # Errors
/// Returns [`MmError`] on malformed input; a parse error names its line.
/// Rows or cols above `u32::MAX` are rejected at the size line, and the
/// declared entry count reserves nothing, so a header cannot make the
/// reader allocate more than its entries need. (A header within those
/// limits can still declare more rows than memory holds.)
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr, MmError> {
    let mut lines = reader.lines().zip(1usize..);
    let header = match lines.next() {
        Some((line, no)) => text(line, no)?.to_lowercase(),
        None => return Err(parse_err(1, "empty file")),
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(1, format!("bad header: {header}")));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err(1, "only coordinate format is supported"));
    }
    let pattern = fields[3] == "pattern";
    if !matches!(fields[3], "real" | "integer" | "pattern") {
        return Err(parse_err(
            1,
            format!("unsupported field type {}", fields[3]),
        ));
    }
    let symmetric = match fields[4] {
        "general" => false,
        "symmetric" => true,
        other => return Err(parse_err(1, format!("unsupported symmetry {other}"))),
    };

    // Skip comments, find the size line.
    let mut last = 1;
    let mut size = None;
    for (line, no) in lines.by_ref() {
        let line = text(line, no)?;
        last = no;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let (rows, cols, nnz) = parse_size_line(t).map_err(|msg| parse_err(no, msg))?;
        if symmetric && rows != cols {
            return Err(parse_err(
                no,
                format!("symmetric matrix must be square, not {rows}x{cols}"),
            ));
        }
        size = Some((rows, cols, nnz));
        break;
    }
    let (rows, cols, nnz) = size.ok_or_else(|| parse_err(last + 1, "missing size line"))?;

    let mut coo = Coo::new(rows, cols);
    let mut seen = 0usize;
    for (line, no) in lines {
        let line = text(line, no)?;
        last = no;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if seen == nnz {
            return Err(parse_err(no, format!("expected {nnz} entries, found more")));
        }
        let (r, c, v) = parse_entry(t, rows, cols, pattern).map_err(|msg| parse_err(no, msg))?;
        if symmetric && r != c {
            coo.push_symmetric(r - 1, c - 1, v);
        } else {
            coo.push(r - 1, c - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            last + 1,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    Ok(coo.into_csr())
}

/// Writes a matrix in Matrix Market `coordinate real general` format.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_matrix_market<W: Write>(m: &Csr, mut writer: W) -> Result<(), MmError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by nbwp-sparse")?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {v}", r + 1, c + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(s: &str) -> Result<Csr, MmError> {
        read_matrix_market(BufReader::new(s.as_bytes()))
    }

    #[test]
    fn roundtrip_general() {
        let m = crate::gen::uniform_random(50, 5, 3);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn reads_symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n1 1 3.0\n2 1 4.0\n";
        let m = parse(text).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 3 2\n1 3\n2 1\n";
        let m = parse(text).unwrap();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\n2 2 1\n% mid comment\n2 2 7.5\n";
        let m = parse(text).unwrap();
        assert_eq!(m.get(1, 1), 7.5);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse("%%NotMatrixMarket x y z w\n1 1 0\n").is_err());
        assert!(parse("%%MatrixMarket matrix array real general\n1 1 1\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate complex general\n1 1 0\n").is_err());
    }

    #[test]
    fn rejects_out_of_bounds_and_wrong_count() {
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(parse(oob).is_err());
        let zero_based = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(zero_based.parse::<i32>().is_err() || parse(zero_based).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(parse(short).is_err());
    }

    #[test]
    fn rejects_empty_file() {
        assert!(parse("").is_err());
    }

    /// The line and message of the parse error `s` must produce.
    fn parse_error(s: &str) -> (usize, String) {
        match parse(s) {
            Err(MmError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general";

    #[test]
    fn declared_entries_reserve_nothing() {
        // 1e11 declared entries used to reserve 1.6 TB up front.
        let text = format!("{GENERAL}\n1 1 100000000000\n1 1 1.0\n");
        assert_eq!(
            parse_error(&text),
            (4, "expected 100000000000 entries, found 1".into())
        );
        let extra = format!("{GENERAL}\n2 2 1\n1 1 1.0\n% c\n2 2 1.0\n");
        assert_eq!(
            parse_error(&extra),
            (5, "expected 1 entries, found more".into())
        );
    }

    #[test]
    fn huge_dimensions_are_rejected_at_the_size_line() {
        // 1e11 rows used to reserve an 800 GB row pointer, and
        // `usize::MAX` rows wrapped `rows + 1` to 0 and filled memory.
        for size in [
            "100000000000 100000000000 0",
            "18446744073709551615 18446744073709551615 0",
            "4294967296 1 0",
        ] {
            let (line, msg) = parse_error(&format!("{GENERAL}\n% c\n{size}\n"));
            assert_eq!(line, 3, "{msg}");
            assert!(msg.ends_with("must not exceed 4294967295"), "{msg}");
        }
    }

    #[test]
    fn symmetric_headers_must_be_square() {
        // The mirror of (1, 5) used to panic out of bounds in `Coo::push`.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 5 1\n1 5 1.0\n";
        assert_eq!(
            parse_error(text),
            (2, "symmetric matrix must be square, not 2x5".into())
        );
    }

    #[test]
    fn indices_past_u32_are_rejected_not_truncated() {
        // Column 4294967297 used to be stored as `u32` column 0.
        let text = format!("{GENERAL}\n1 4294967297 1\n1 4294967297 1.0\n");
        assert_eq!(parse_error(&text).0, 2);
        let widest = format!("{GENERAL}\n1 4294967295 1\n1 4294967295 2.0\n");
        let m = parse(&widest).unwrap();
        assert_eq!(m.get(0, 4_294_967_294), 2.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn entry_errors_name_their_line() {
        let text = format!("{GENERAL}\n% c\n2 2 2\n1 1 1.0\n\n2 x 1.0\n");
        assert_eq!(parse_error(&text), (6, "bad col index".into()));
        let oob = format!("{GENERAL}\n2 2 1\n3 1 1.0\n");
        assert_eq!(parse_error(&oob), (3, "entry (3, 1) out of bounds".into()));
        assert_eq!(parse_error(GENERAL).0, 2, "missing size line");
        // A byte that is not UTF-8 in the entry value of line 3.
        let mut invalid = format!("{GENERAL}\n1 1 1\n1 1 1.0\n").into_bytes();
        let at = invalid.len() - 2;
        invalid[at] = 0xFF;
        match read_matrix_market(BufReader::new(invalid.as_slice())) {
            Err(MmError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    const HEADERS: [&str; 7] = [
        GENERAL,
        "%%MatrixMarket matrix coordinate real symmetric",
        "%%MatrixMarket matrix coordinate pattern general",
        "%%MatrixMarket matrix coordinate integer symmetric",
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate real hermitian",
        "%%MatrixMarket vector",
    ];

    /// Tokens besides the in-range numbers 0..=1000: values the reader must
    /// reject as dimensions or indices, and malformed ones.
    const ODD_TOKENS: [&str; 10] = [
        "4294967296",
        "100000000000",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "1.5",
        "nan",
        "x",
        "%",
        "",
    ];

    fn token((odd, n): (usize, usize)) -> String {
        ODD_TOKENS
            .get(odd)
            .map_or_else(|| n.to_string(), |t| (*t).to_string())
    }

    fn line(tokens: Vec<(usize, usize)>) -> String {
        tokens.into_iter().map(token).collect::<Vec<_>>().join(" ")
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Random headers, size lines and entry lines never panic: the
        /// reader returns a matrix within the declared (≤ 1 000) bounds
        /// or an error naming a line of the file (or the one past it).
        #[test]
        fn random_files_never_panic(
            header in 0usize..HEADERS.len(),
            size in proptest::collection::vec((0usize..20, 0usize..=1000), 0..5),
            entries in proptest::collection::vec(
                proptest::collection::vec((0usize..30, 0usize..=1000), 0..5),
                0..8,
            ),
        ) {
            let mut text = format!("{}\n{}\n", HEADERS[header], line(size));
            let lines = 2 + entries.len();
            for entry in entries {
                text.push_str(&line(entry));
                text.push('\n');
            }
            match parse(&text) {
                Ok(m) => proptest::prop_assert!(m.rows() <= 1000 && m.cols() <= 1000),
                Err(MmError::Parse { line, .. }) => {
                    proptest::prop_assert!((1..=lines + 1).contains(&line), "line {}", line);
                }
                Err(MmError::Io(e)) => proptest::prop_assert!(false, "I/O error {}", e),
            }
        }
    }
}
