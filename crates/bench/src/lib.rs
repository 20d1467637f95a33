//! Shared fixtures and table formatting for the SMN benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index). This library holds what they
//! share: deterministic scenario fixtures and plain-text table rendering.

#![warn(missing_docs)]

pub mod timer;

use smn_perf::BenchReport;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::time::Ts;
use smn_telemetry::traffic::{TrafficConfig, TrafficModel};
use smn_topology::gen::{generate_planetary, Planetary, PlanetaryConfig};

/// The standard planetary fixture: ~300 DCs over 24 regions (the paper's
/// "roughly 300 datacenters … less than 30 high traffic regions").
#[must_use]
pub fn planetary() -> Planetary {
    generate_planetary(&PlanetaryConfig::default())
}

/// A small planetary fixture for quick runs.
#[must_use]
pub fn planetary_small() -> Planetary {
    generate_planetary(&PlanetaryConfig::small(7))
}

/// Traffic model over a planetary WAN with default (published-shape)
/// characteristics.
#[must_use]
pub fn traffic(p: &Planetary) -> TrafficModel {
    TrafficModel::new(&p.wan, TrafficConfig::default())
}

/// Generate `days` of 5-minute bandwidth logs starting at `start_day`.
#[must_use]
pub fn bw_log(model: &TrafficModel, start_day: u64, days: u64) -> Vec<BandwidthRecord> {
    model.generate(Ts::from_days(start_day), TrafficModel::epochs_per_days(days))
}

/// Convert one bench-registry wall-latency histogram into a [`BenchReport`]
/// phase row (`None` when the histogram never observed a sample).
#[must_use]
pub fn wall_phase(bench: &smn_obs::Obs, name: &str, path: &str) -> Option<smn_perf::Phase> {
    bench
        .histogram(name)
        .filter(|h| h.count > 0)
        .map(|h| smn_perf::Phase::from_wall_stats(path, h.count, h.mean(), h.quantile(0.99)))
}

/// Write a [`BenchReport`] snapshot (validated, pretty-printed, trailing
/// newline) and log the path.
///
/// # Panics
/// When the report fails its own schema validation or the file cannot be
/// written — both fatal for a bench emitter.
pub fn write_report(path: &str, report: &BenchReport) {
    report.validate().expect("emitted report passes its own schema");
    std::fs::write(path, report.to_json_pretty() + "\n").expect("write report");
    println!("report: -> {path}");
}

/// Render an aligned plain-text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = planetary_small();
        let b = planetary_small();
        assert_eq!(a.wan.dc_count(), b.wan.dc_count());
        let m = traffic(&a);
        let log = bw_log(&m, 0, 1);
        assert_eq!(log.len(), 288 * m.pairs().len());
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[vec!["x".into(), "1".into()], vec!["longer".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }
}
