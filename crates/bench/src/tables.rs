//! Tables 1 and 3: the qualitative method matrices.

use crate::render_table;
use pvr_privatize::matrix::{self, MatrixRow};

/// The matrix `rows` as a text table under `title`.
fn render(title: &str, rows: Vec<MatrixRow>) -> String {
    let (headers, cells) = matrix::cells(&rows);
    render_table(title, &headers, &cells)
}

pub fn table1() -> String {
    let title = "Table 1: Summary of existing privatization methods and their features.";
    render(title, matrix::table1())
}

pub fn table3() -> String {
    let title = "Table 3: Summary of privatization methods and their features, \
                 including our three novel runtime methods.";
    render(title, matrix::table3())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tables_render() {
        let _host = crate::host_shared();
        let t1 = super::table1();
        let t3 = super::table3();
        assert!(t1.contains("Swapglobals"));
        assert!(t3.contains("PIEglobals"));
        assert!(t3.lines().count() > t1.lines().count());
    }

    #[test]
    fn render_produces_aligned_table() {
        let s = super::table3();
        assert!(s.contains("PIEglobals") && s.contains("Migration Support"));
        assert_eq!(s.lines().count(), 3 + 8);
    }
}
