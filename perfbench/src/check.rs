//! Output checks: result rows against `qc_plan::reference`, and the
//! deterministic shape of generated code and execution against the
//! values recorded during set-up.

use qc_runtime::SqlValue;

/// Size and function count of a compiled query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeShape {
    pub code_bytes: usize,
    pub functions: usize,
}

/// Rows in the order-insensitive form the reference is compared in.
pub fn normalize(rows: &[Vec<SqlValue>]) -> Vec<String> {
    qc_plan::reference::normalize(rows)
}

/// Compares result rows, as a multiset, with the reference rows.
pub fn rows(what: &str, expected: &[String], got: &[Vec<SqlValue>]) -> Result<(), String> {
    let got = normalize(got);
    if got.len() != expected.len() {
        return Err(format!(
            "{what}: {} rows, reference has {}",
            got.len(),
            expected.len()
        ));
    }
    match got.iter().zip(expected).position(|(g, e)| g != e) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: row `{}` where the reference has `{}`",
            got[i], expected[i]
        )),
    }
}

/// Compares a deterministic value (model cycles, code shape, rows)
/// between two runs that must agree exactly.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, expected: T, got: T) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what}: {got:?}, expected {expected:?}"))
    }
}

/// Counts checked operations and failures; prints the first few
/// failures to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {e}");
            }
        }
    }

    /// Failed share of attempted operations.
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<Vec<SqlValue>> {
        vec![
            vec![SqlValue::I64(1), SqlValue::Str("a".into())],
            vec![SqlValue::I64(2), SqlValue::Decimal(1050, 2)],
            vec![SqlValue::I64(3), SqlValue::Null],
        ]
    }

    #[test]
    fn identical_rows_in_any_order_pass() {
        let expected = normalize(&table());
        let mut got = table();
        got.reverse();
        assert_eq!(rows("q", &expected, &got), Ok(()));
    }

    #[test]
    fn one_wrong_row_fails() {
        let expected = normalize(&table());
        let mut got = table();
        got[1][1] = SqlValue::Decimal(1051, 2);
        assert!(rows("q", &expected, &got).is_err());
    }

    #[test]
    fn a_missing_or_extra_row_fails() {
        let expected = normalize(&table());
        let mut fewer = table();
        fewer.pop();
        assert!(rows("q", &expected, &fewer).is_err());
        let mut more = table();
        more.push(vec![SqlValue::I64(3), SqlValue::Null]);
        assert!(rows("q", &expected, &more).is_err());
    }

    #[test]
    fn changed_code_bytes_fail() {
        let setup = CodeShape {
            code_bytes: 4096,
            functions: 3,
        };
        assert_eq!(same("q", setup, setup), Ok(()));
        let grown = CodeShape {
            code_bytes: 4097,
            ..setup
        };
        assert!(same("q", setup, grown).is_err());
        let fewer = CodeShape {
            functions: 2,
            ..setup
        };
        assert!(same("q", setup, fewer).is_err());
    }

    #[test]
    fn tally_counts_failures() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record(same("cycles", 10u64, 11));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.error_rate(), 0.5);
    }
}
