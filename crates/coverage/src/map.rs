//! Exercised-cell accounting: the [`CoverageMap`] and its report.
//!
//! A map records which lattice cells a campaign run *actually exercised*
//! — fed from replay outcomes and the smn-obs audit trail, never from the
//! campaign spec alone. Maps from shards or repeated runs merge by count
//! addition, which is associative and commutative (proptest-locked in
//! `tests/coverage.rs`), so coverage composes like the smn-obs metrics.

use std::collections::BTreeMap;

use serde::{Deserialize, Value};
use smn_incident::faults::FaultKind;
use smn_topology::artifact::Violation;
use smn_topology::{path, LayerId};

use crate::lattice::{FaultLattice, LatticeCell, LocusBucket, Rung};

/// Cells exercised by one or more campaign runs, with hit counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    cells: BTreeMap<LatticeCell, u64>,
}

impl CoverageMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one exercise of `cell`.
    pub fn record(&mut self, cell: LatticeCell) {
        self.record_n(cell, 1);
    }

    /// Record `n` exercises of `cell`.
    pub fn record_n(&mut self, cell: LatticeCell, n: u64) {
        if n > 0 {
            *self.cells.entry(cell).or_insert(0) += n;
        }
    }

    /// Fold another map into this one (count addition per cell).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (&cell, &n) in &other.cells {
            self.record_n(cell, n);
        }
    }

    /// Times `cell` was exercised (0 when never).
    #[must_use]
    pub fn count(&self, cell: &LatticeCell) -> u64 {
        self.cells.get(cell).copied().unwrap_or(0)
    }

    /// Number of distinct exercised cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether nothing was exercised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Exercised cells with counts, lattice order.
    pub fn iter(&self) -> impl Iterator<Item = (&LatticeCell, u64)> + '_ {
        self.cells.iter().map(|(c, &n)| (c, n))
    }
}

/// What a report says about one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellStatus {
    /// Reachable and exercised.
    Covered,
    /// Reachable but never exercised.
    Uncovered,
    /// Exercised but not on the reachable lattice — ambient chaos (or a
    /// modeling gap) produced a scenario the lattice says cannot happen.
    Unexpected,
}

impl CellStatus {
    /// Every status.
    pub const ALL: [CellStatus; 3] =
        [CellStatus::Covered, CellStatus::Uncovered, CellStatus::Unexpected];

    /// Canonical name, e.g. `"covered"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Covered => "covered",
            CellStatus::Uncovered => "uncovered",
            CellStatus::Unexpected => "unexpected",
        }
    }

    /// Parse a canonical name back into a status.
    #[must_use]
    pub fn parse(name: &str) -> Option<CellStatus> {
        CellStatus::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One row of a coverage report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportCell {
    /// The lattice cell.
    pub cell: LatticeCell,
    /// How often it was exercised.
    pub count: u64,
    /// Covered / uncovered / unexpected.
    pub status: CellStatus,
}

/// A full coverage report: the reachable lattice joined against an
/// exercised-cell map, plus the unreachable-shell accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Campaign label, e.g. `"generated"` or `"fixed-560"`.
    pub campaign: String,
    /// Seed the campaign was generated with.
    pub campaign_seed: u64,
    /// Faults in the campaign.
    pub n_faults: u64,
    /// Size of the raw kind × layer × locus × rung product.
    pub total_cells: u64,
    /// Reachable cells on this deployment + topology.
    pub reachable: u64,
    /// Reachable cells the run exercised.
    pub covered: u64,
    /// Product cells no campaign can exercise (`total - reachable`).
    pub unreachable: u64,
    /// `covered / reachable` in `[0, 1]`.
    pub ratio: f64,
    /// Per-cell rows: every reachable cell, then any unexpected ones.
    pub cells: Vec<ReportCell>,
}

impl CoverageReport {
    /// Join `map` against `lattice`.
    #[must_use]
    #[allow(clippy::cast_precision_loss, reason = "cell counts stay far below 2^52")]
    pub fn build(
        campaign: &str,
        campaign_seed: u64,
        n_faults: usize,
        lattice: &FaultLattice,
        map: &CoverageMap,
    ) -> Self {
        let mut cells: Vec<ReportCell> = lattice
            .reachable()
            .iter()
            .map(|&cell| {
                let count = map.count(&cell);
                let status = if count > 0 { CellStatus::Covered } else { CellStatus::Uncovered };
                ReportCell { cell, count, status }
            })
            .collect();
        for (&cell, count) in map.iter() {
            if !lattice.is_reachable(&cell) {
                cells.push(ReportCell { cell, count, status: CellStatus::Unexpected });
            }
        }
        let reachable = lattice.reachable().len() as u64;
        let covered = cells.iter().filter(|r| r.status == CellStatus::Covered).count() as u64;
        let total_cells = FaultLattice::total_cells() as u64;
        let ratio = if reachable == 0 { 0.0 } else { covered as f64 / reachable as f64 };
        CoverageReport {
            campaign: campaign.to_string(),
            campaign_seed,
            n_faults: n_faults as u64,
            total_cells,
            reachable,
            covered,
            unreachable: total_cells - reachable,
            ratio,
            cells,
        }
    }

    /// Coverage as a percentage of the reachable lattice.
    #[must_use]
    pub fn ratio_pct(&self) -> f64 {
        self.ratio * 100.0
    }

    /// Reachable cells never exercised, lattice order.
    #[must_use]
    pub fn uncovered(&self) -> Vec<&ReportCell> {
        self.cells.iter().filter(|r| r.status == CellStatus::Uncovered).collect()
    }

    /// Exercised cells outside the reachable lattice.
    #[must_use]
    pub fn unexpected(&self) -> Vec<&ReportCell> {
        self.cells.iter().filter(|r| r.status == CellStatus::Unexpected).collect()
    }

    /// Serialize as the `coverage-report` artifact envelope smn-lint
    /// checks. Field order is fixed, so identically seeded runs write
    /// byte-identical reports.
    #[must_use]
    pub fn to_artifact(&self) -> Value {
        use serde::Serialize as _;
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|r| {
                Value::Map(vec![
                    ("kind".to_string(), r.cell.kind.to_value()),
                    ("layer".to_string(), Value::Str(r.cell.layer.name().to_string())),
                    ("locus".to_string(), Value::Str(r.cell.locus.name().to_string())),
                    ("rung".to_string(), Value::Str(r.cell.rung.name().to_string())),
                    ("count".to_string(), Value::U64(r.count)),
                    ("status".to_string(), Value::Str(r.status.name().to_string())),
                ])
            })
            .collect();
        Value::Map(vec![
            ("kind".to_string(), Value::Str("coverage-report".to_string())),
            ("campaign".to_string(), Value::Str(self.campaign.clone())),
            ("campaign_seed".to_string(), Value::U64(self.campaign_seed)),
            ("n_faults".to_string(), Value::U64(self.n_faults)),
            ("total_cells".to_string(), Value::U64(self.total_cells)),
            ("reachable".to_string(), Value::U64(self.reachable)),
            ("covered".to_string(), Value::U64(self.covered)),
            ("unreachable".to_string(), Value::U64(self.unreachable)),
            ("ratio".to_string(), Value::F64(self.ratio)),
            ("cells".to_string(), Value::Seq(cells)),
        ])
    }
}

/// Decode one `cells[i]` row of a coverage-report artifact, naming every
/// field that is not a lattice coordinate, status or hit count.
fn decode_cell(i: usize, v: &Value) -> Result<ReportCell, Vec<Violation>> {
    let name = |key: &str| match v.get(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    };
    let names = |all: &[&str]| format!("expected one of: {}", all.join(", "));
    let mut bad = Vec::new();
    let mut unknown = |key: &str, what: &str, note: &str| {
        bad.push(Violation::new(
            "artifact/unknown-cell",
            path!["cells", i, key],
            format!("cell {i} {what}"),
            note,
        ));
    };
    let kind = v.get("kind").and_then(|k| FaultKind::from_value(k).ok());
    if kind.is_none() {
        unknown("kind", "does not name a FaultKind", "");
    }
    let layer = name("layer").and_then(LayerId::parse);
    if layer.is_none() {
        unknown("layer", "does not name a stack layer", "expected L1, L3, or L7");
    }
    let locus = name("locus").and_then(LocusBucket::parse);
    if locus.is_none() {
        let note = names(&LocusBucket::ALL.map(LocusBucket::name));
        unknown("locus", "does not name a topology-locus bucket", &note);
    }
    let rung = name("rung").and_then(Rung::parse);
    if rung.is_none() {
        unknown("rung", "does not name a degradation rung", &names(&Rung::ALL.map(Rung::name)));
    }
    let status = name("status").and_then(CellStatus::parse);
    if status.is_none() {
        let note = names(&CellStatus::ALL.map(CellStatus::name));
        unknown("status", "does not carry a status", &note);
    }
    let count = v.get("count").and_then(|c| u64::from_value(c).ok());
    if count.is_none() {
        unknown("count", "lacks an integer hit count", "");
    }
    match (kind, layer, locus, rung, status, count) {
        (Some(kind), Some(layer), Some(locus), Some(rung), Some(status), Some(count)) => {
            Ok(ReportCell { cell: LatticeCell { kind, layer, locus, rung }, count, status })
        }
        _ => Err(bad),
    }
}

/// A coverage report's wire form, cells not yet decoded.
#[derive(Deserialize)]
struct WireReport {
    campaign: String,
    campaign_seed: u64,
    n_faults: u64,
    total_cells: u64,
    reachable: u64,
    covered: u64,
    unreachable: u64,
    ratio: f64,
    cells: Vec<Value>,
}

impl CoverageReport {
    /// Decode a `coverage-report` artifact (the wire form of
    /// [`CoverageReport::to_artifact`]).
    ///
    /// # Errors
    /// An `artifact/unreadable` violation when the report does not have
    /// that shape, else one `artifact/unknown-cell` violation per cell
    /// field that names no lattice coordinate, status or hit count.
    pub fn from_artifact(v: &Value) -> Result<Self, Vec<Violation>> {
        let w = WireReport::from_value(v)
            .map_err(|e| vec![Violation::unreadable("a coverage report", &e)])?;
        let mut cells = Vec::with_capacity(w.cells.len());
        let mut bad = Vec::new();
        for (i, row) in w.cells.iter().enumerate() {
            match decode_cell(i, row) {
                Ok(cell) => cells.push(cell),
                Err(vs) => bad.extend(vs),
            }
        }
        if !bad.is_empty() {
            return Err(bad);
        }
        Ok(CoverageReport {
            campaign: w.campaign,
            campaign_seed: w.campaign_seed,
            n_faults: w.n_faults,
            total_cells: w.total_cells,
            reachable: w.reachable,
            covered: w.covered,
            unreachable: w.unreachable,
            ratio: w.ratio,
            cells,
        })
    }

    /// The report agrees with itself: the product lattice splits into
    /// reachable and unreachable cells, each cell appears at most once
    /// with a hit count its status allows, and the `reachable`, `covered`
    /// and `ratio` tallies match the rows they summarize.
    #[must_use]
    #[allow(clippy::cast_precision_loss, reason = "cell tallies stay far below 2^52")]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let (reachable, covered, unreachable) = (self.reachable, self.covered, self.unreachable);
        if reachable.checked_add(unreachable) != Some(self.total_cells) {
            out.push(Violation::new(
                "artifact/coverage-mismatch",
                path!["total_cells"],
                format!(
                    "total_cells is {}, but reachable {reachable} + unreachable {unreachable} = {}",
                    self.total_cells,
                    reachable.saturating_add(unreachable)
                ),
                "the unreachable shell is the product lattice minus the reachable cells",
            ));
        }
        for (i, r) in self.cells.iter().enumerate() {
            if self.cells.iter().take(i).any(|p| p.cell == r.cell) {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["cells", i],
                    format!("duplicate cell {}", r.cell.label()),
                    "each lattice cell appears at most once per report",
                ));
            }
            // A covered or unexpected cell was exercised at least once,
            // an uncovered one never.
            if (r.status == CellStatus::Uncovered) != (r.count == 0) {
                out.push(Violation::new(
                    "artifact/coverage-mismatch",
                    path!["cells", i, "count"],
                    format!(
                        "cell {i} has status `{}` but a hit count of {}",
                        r.status.name(),
                        r.count
                    ),
                    "covered/unexpected cells need count > 0; uncovered cells need count == 0",
                ));
            }
        }
        let rows =
            |keep: fn(CellStatus) -> bool| self.cells.iter().filter(|r| keep(r.status)).count();
        let reachable_rows = rows(|s| s != CellStatus::Unexpected);
        if reachable_rows as u64 != reachable {
            out.push(Violation::new(
                "artifact/coverage-mismatch",
                path!["reachable"],
                format!(
                    "report declares {reachable} reachable cell(s), \
                     but lists {reachable_rows} covered/uncovered row(s)"
                ),
                "every reachable cell gets one row, covered or uncovered",
            ));
        }
        let covered_rows = rows(|s| s == CellStatus::Covered);
        if covered_rows as u64 != covered {
            out.push(Violation::new(
                "artifact/coverage-mismatch",
                path!["covered"],
                format!(
                    "report declares {covered} covered cell(s), \
                     but lists {covered_rows} row(s) with status `covered`"
                ),
                "",
            ));
        }
        let expected = if reachable == 0 { 0.0 } else { covered as f64 / reachable as f64 };
        if self.ratio.is_nan() || (self.ratio - expected).abs() > 1e-9 {
            out.push(Violation::new(
                "artifact/coverage-mismatch",
                path!["ratio"],
                format!("ratio is {}, but covered/reachable = {expected}", self.ratio),
                "",
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{LocusBucket, Rung};
    use smn_incident::faults::FaultKind;
    use smn_topology::LayerId;

    fn cell(kind: FaultKind) -> LatticeCell {
        LatticeCell { kind, layer: LayerId::L7, locus: LocusBucket::None, rung: Rung::Full }
    }

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = CoverageMap::new();
        a.record(cell(FaultKind::ServerCrash));
        a.record(cell(FaultKind::ServerCrash));
        let mut b = CoverageMap::new();
        b.record_n(cell(FaultKind::ServerCrash), 3);
        b.record(cell(FaultKind::MemoryLeak));
        a.merge(&b);
        assert_eq!(a.count(&cell(FaultKind::ServerCrash)), 5);
        assert_eq!(a.count(&cell(FaultKind::MemoryLeak)), 1);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn zero_count_records_nothing() {
        let mut m = CoverageMap::new();
        m.record_n(cell(FaultKind::ServerCrash), 0);
        assert!(m.is_empty());
    }
}
