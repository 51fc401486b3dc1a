//! Shared helpers for the bench binaries: formatting for the `repro_*`
//! binaries that regenerate the paper's tables and figures, and the
//! kernel selection of the sweeps.

pub mod report;
pub mod snapshot;

use marionette::kernels::traits::Scale;

/// Parses the common CLI convention: `--paper` selects Table 5 sizes,
/// otherwise reduced sizes run in seconds.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Small
    }
}

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

/// Every kernel tag the sweeps cover (the suite kernels plus the LDPC
/// application), narrowed to a comma-separated `--kernels` filter
/// (case-insensitive) when one is given.
///
/// # Errors
/// Returns a message when the filter matches no kernel.
pub fn kernel_tags(filter: Option<&str>) -> Result<Vec<String>, String> {
    let mut tags: Vec<String> = marionette::kernels::all()
        .iter()
        .map(|k| k.short().to_string())
        .collect();
    tags.push("LDPC-APP".to_string());
    if let Some(filter) = filter {
        let want: Vec<String> = filter
            .split(',')
            .map(|s| s.trim().to_uppercase())
            .filter(|s| !s.is_empty())
            .collect();
        tags.retain(|t| want.iter().any(|w| w == &t.to_uppercase()));
        if tags.is_empty() {
            return Err(format!("no kernels match --kernels {filter}"));
        }
    }
    Ok(tags)
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
