//! Plain-text table rendering for experiment output.

/// Renders an aligned text table: `header` then `rows`, columns padded to
/// the widest cell.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats requests/second as `NN.NK`.
pub fn kreq(v: f64) -> String {
    format!("{:.1}K", v / 1_000.0)
}

/// Formats milliseconds with one decimal.
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a ratio as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            "T",
            &["a", "longheader"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].starts_with("a      longheader"));
        assert!(lines[3].starts_with("x      1"));
    }

    #[test]
    fn formatters() {
        assert_eq!(kreq(84_200.0), "84.2K");
        assert_eq!(ms(21.04), "21.0");
        assert_eq!(pct(0.256), "26%");
    }
}
