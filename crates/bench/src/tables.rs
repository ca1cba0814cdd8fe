//! Tables 1 and 3: the qualitative method matrices.

use pvr_privatize::matrix;

pub fn table1() -> String {
    matrix::render(
        &matrix::table1(),
        "Table 1: Summary of existing privatization methods and their features.",
    )
}

pub fn table3() -> String {
    matrix::render(
        &matrix::table3(),
        "Table 3: Summary of privatization methods and their features, \
         including our three novel runtime methods.",
    )
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
}
