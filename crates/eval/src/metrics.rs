//! The paper's evaluation criteria.

/// Aggregated outcome of one estimation method at one threshold over a
/// query workload (one row of a paper table).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThresholdRow {
    /// The threshold `T`.
    pub threshold: f64,
    /// `U`: number of queries whose *true* NoDoc is at least 1.
    pub u: u64,
    /// Queries with true NoDoc >= 1 whose estimated (rounded) NoDoc is
    /// also >= 1.
    pub matches: u64,
    /// Queries with true NoDoc == 0 whose estimated NoDoc is >= 1.
    pub mismatches: u64,
    /// Sum over the `U` queries of |true − estimated(rounded)| NoDoc
    /// (divide by `u` for the paper's d-N).
    pub sum_dn: f64,
    /// Sum over the `U` queries of |true − estimated| AvgSim.
    pub sum_ds: f64,
}

impl ThresholdRow {
    /// Folds one query's outcome into the row.
    pub fn record(
        &mut self,
        true_no_doc: u64,
        true_avg_sim: f64,
        est_no_doc: u64,
        est_avg_sim: f64,
    ) {
        if true_no_doc >= 1 {
            self.u += 1;
            if est_no_doc >= 1 {
                self.matches += 1;
            }
            self.sum_dn += (true_no_doc as f64 - est_no_doc as f64).abs();
            self.sum_ds += (true_avg_sim - est_avg_sim).abs();
        } else if est_no_doc >= 1 {
            self.mismatches += 1;
        }
    }

    /// Merges another partial row (parallel reduction).
    pub fn merge(&mut self, other: &ThresholdRow) {
        self.u += other.u;
        self.matches += other.matches;
        self.mismatches += other.mismatches;
        self.sum_dn += other.sum_dn;
        self.sum_ds += other.sum_ds;
    }

    /// The paper's d-N: mean |true − estimated| NoDoc over the `U`
    /// queries.
    pub fn d_n(&self) -> f64 {
        if self.u == 0 {
            0.0
        } else {
            self.sum_dn / self.u as f64
        }
    }

    /// The paper's d-S: mean |true − estimated| AvgSim over the `U`
    /// queries.
    pub fn d_s(&self) -> f64 {
        if self.u == 0 {
            0.0
        } else {
            self.sum_ds / self.u as f64
        }
    }

    /// Match rate `matches / U` (1.0 is perfect identification).
    pub fn match_rate(&self) -> f64 {
        if self.u == 0 {
            0.0
        } else {
            self.matches as f64 / self.u as f64
        }
    }
}

/// All threshold rows of one method on one database.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name (e.g. "subrange").
    pub method: String,
    /// One row per threshold, in sweep order.
    pub rows: Vec<ThresholdRow>,
}

impl MethodResult {
    /// CSV header matching [`MethodResult::to_csv`].
    pub const CSV_HEADER: &'static str = "method,threshold,u,matches,mismatches,d_n,d_s";

    /// Renders the rows as CSV lines (no header; see
    /// [`MethodResult::CSV_HEADER`]) for plotting outside the crate.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.2},{},{},{},{:.6},{:.6}\n",
                self.method,
                r.threshold,
                r.u,
                r.matches,
                r.mismatches,
                r.d_n(),
                r.d_s()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_queries() {
        let mut r = ThresholdRow {
            threshold: 0.1,
            ..Default::default()
        };
        r.record(3, 0.5, 2, 0.4); // match, dn 1, ds 0.1
        r.record(1, 0.3, 0, 0.0); // miss (counted in U, not matched)
        r.record(0, 0.0, 2, 0.2); // mismatch
        r.record(0, 0.0, 0, 0.0); // true negative
        assert_eq!(r.u, 2);
        assert_eq!(r.matches, 1);
        assert_eq!(r.mismatches, 1);
        assert!((r.d_n() - (1.0 + 1.0) / 2.0).abs() < 1e-12);
        assert!((r.d_s() - (0.1 + 0.3) / 2.0).abs() < 1e-12);
        assert!((r.match_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = ThresholdRow::default();
        a.record(1, 0.2, 1, 0.2);
        let mut b = ThresholdRow::default();
        b.record(0, 0.0, 1, 0.1);
        b.record(2, 0.4, 2, 0.35);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.u, 2);
        assert_eq!(merged.matches, 2);
        assert_eq!(merged.mismatches, 1);
    }

    #[test]
    fn empty_row_rates_are_zero() {
        let r = ThresholdRow::default();
        assert_eq!(r.d_n(), 0.0);
        assert_eq!(r.d_s(), 0.0);
        assert_eq!(r.match_rate(), 0.0);
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut row = ThresholdRow {
            threshold: 0.1,
            ..Default::default()
        };
        row.record(3, 0.5, 2, 0.4);
        let res = MethodResult {
            method: "subrange".into(),
            rows: vec![row],
        };
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 1);
        let fields: Vec<&str> = csv.trim().split(',').collect();
        assert_eq!(
            fields.len(),
            MethodResult::CSV_HEADER.split(',').count(),
            "{csv}"
        );
        assert_eq!(fields[0], "subrange");
        assert_eq!(fields[2], "1"); // u
        assert_eq!(fields[3], "1"); // matches
    }
}
