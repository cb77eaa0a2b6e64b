//! The committed golden tables (`tests/golden/*.md`), read and never
//! written, compared after the same normalisation `tests/golden_tables.rs`
//! applies.

use std::path::PathBuf;

/// The repository's golden directory, resolved from this package's
/// manifest so the run does not depend on the working directory.
pub fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("tests")
        .join("golden")
}

/// Canonical text form: `\r\n` → `\n`, trailing whitespace stripped per
/// line, exactly one trailing newline. Everything else is significant.
pub fn normalize(s: &str) -> String {
    let mut out: String = s
        .replace("\r\n", "\n")
        .lines()
        .map(|l| l.trim_end())
        .collect::<Vec<_>>()
        .join("\n");
    while out.ends_with('\n') {
        out.pop();
    }
    out.push('\n');
    out
}

/// Reads and normalises golden `name` (`tests/golden/<name>.md`).
pub fn load(name: &str) -> Result<String, String> {
    let path = dir().join(format!("{name}.md"));
    std::fs::read_to_string(&path)
        .map(|s| normalize(&s))
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
}

/// `None` when `rendered` equals the normalised golden, else the first
/// differing line.
pub fn diff(golden: &str, rendered: &str) -> Option<String> {
    let actual = normalize(rendered);
    if actual == golden {
        return None;
    }
    let mut line = 1;
    let (mut g, mut a) = (golden.lines(), actual.lines());
    loop {
        match (g.next(), a.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => {
                return Some(format!(
                    "line {line}: golden `{}` vs actual `{}`",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_matches_the_golden_suite() {
        assert_eq!(normalize("a  \r\nb\t\n\n\n"), "a\nb\n");
        assert_eq!(normalize("x"), "x\n");
        assert_eq!(normalize(""), "\n");
        // Leading whitespace and inner blank lines are significant.
        assert_eq!(normalize("  a\n\nb\n"), "  a\n\nb\n");
    }

    #[test]
    fn diff_locates_a_one_character_drift() {
        let golden = normalize("| a | b |\n| 1 | 2 |\n");
        assert_eq!(diff(&golden, "| a | b |\r\n| 1 | 2 |   \n\n"), None);
        let d = diff(&golden, "| a | b |\n| 1 | 3 |\n").expect("drift detected");
        assert!(
            d.starts_with("line 2:") && d.contains("| 1 | 2 |") && d.contains("| 1 | 3 |"),
            "{d}"
        );
        let d = diff(&golden, "| a | b |\n").expect("truncation detected");
        assert!(d.contains("<end>"), "{d}");
    }

    #[test]
    fn every_fast_generator_and_the_study_have_a_golden() {
        for &(name, _) in fnr_bench::FAST_TABLE_GENERATORS {
            assert!(load(name).is_ok(), "golden for {name}");
        }
        assert!(load("fig20a_psnr_study").is_ok());
    }
}
