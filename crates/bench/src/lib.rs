//! Shared helpers for the bench binaries: formatting for `repro_all`,
//! which regenerates the paper's tables and figures, and the shared
//! sweep behind the perf and experiment sweeps.

pub mod report;
pub mod sweep;

/// Prints a header banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref}; pass --paper for Table 5 data sizes)");
    println!("================================================================");
}

/// Formats a speedup series as a table row.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<26}");
    for v in values {
        s.push_str(&format!(" {v:>7.2}"));
    }
    s
}

/// Formats a kernel-tag header row.
pub fn header(first: &str, tags: &[String]) -> String {
    let mut s = format!("{first:<26}");
    for t in tags {
        s.push_str(&format!(" {t:>7}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting() {
        let r = row("x", &[1.0, 2.5]);
        assert!(r.contains("1.00") && r.contains("2.50"));
        let h = header("k", &["A".into(), "B".into()]);
        assert!(h.contains('A') && h.contains('B'));
    }
}
