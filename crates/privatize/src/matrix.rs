//! The qualitative feature matrix — Tables 1 and 3 of the paper.
//!
//! Table 1 summarizes the pre-existing methods; Table 3 repeats them and
//! adds the paper's three runtime contributions. `pvr-bench`'s `repro`
//! binary prints both, and a golden test pins the contents.

use crate::Method;

/// One row of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixRow {
    pub method: Method,
    pub display_name: &'static str,
    pub automation: &'static str,
    pub portability: &'static str,
    pub smp_support: &'static str,
    pub migration_support: &'static str,
}

/// Rows of Table 1 (existing methods, §2.4).
pub fn table1() -> Vec<MatrixRow> {
    vec![
        MatrixRow {
            method: Method::ManualRefactor,
            display_name: "Manual refactoring",
            automation: "Poor",
            portability: "Good",
            smp_support: "Yes",
            migration_support: "Yes",
        },
        MatrixRow {
            method: Method::Photran,
            display_name: "Photran",
            automation: "Fortran-specific",
            portability: "Good",
            smp_support: "Yes",
            migration_support: "Yes",
        },
        MatrixRow {
            method: Method::Swapglobals,
            display_name: "Swapglobals",
            automation: "No static vars",
            portability: "Linker-specific",
            smp_support: "No",
            migration_support: "Yes",
        },
        MatrixRow {
            method: Method::TlsGlobals,
            display_name: "TLSglobals",
            automation: "Mediocre",
            portability: "Compiler-specific",
            smp_support: "Yes",
            migration_support: "Yes",
        },
        MatrixRow {
            method: Method::MpcPrivatize,
            display_name: "-fmpc-privatize",
            automation: "Good",
            portability: "Compiler-specific",
            smp_support: "Yes",
            migration_support: "Not implemented, but possible",
        },
    ]
}

/// Rows of Table 3 (Table 1 plus the paper's three new runtime methods).
pub fn table3() -> Vec<MatrixRow> {
    let mut rows = table1();
    rows.push(MatrixRow {
        method: Method::PipGlobals,
        display_name: "PIPglobals",
        automation: "Good",
        portability: "Requires GNU libc extension",
        smp_support: "Limited w/o patched glibc",
        migration_support: "No",
    });
    rows.push(MatrixRow {
        method: Method::FsGlobals,
        display_name: "FSglobals",
        automation: "Good",
        portability: "Shared file system needed",
        smp_support: "Yes",
        migration_support: "No",
    });
    rows.push(MatrixRow {
        method: Method::PieGlobals,
        display_name: "PIEglobals",
        automation: "Good",
        portability: "Implemented w/ GNU libc extension",
        smp_support: "Yes",
        migration_support: "Yes",
    });
    rows
}

/// `rows` as text cells, under the matrix's column headers: what a
/// table renderer needs.
pub fn cells(rows: &[MatrixRow]) -> ([&'static str; 5], Vec<[&'static str; 5]>) {
    let headers = [
        "Method",
        "Automation",
        "Portability",
        "SMP Mode Support",
        "Migration Support",
    ];
    let cells = rows
        .iter()
        .map(|r| {
            [
                r.display_name,
                r.automation,
                r.portability,
                r.smp_support,
                r.migration_support,
            ]
        })
        .collect();
    (headers, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{PrivatizeEnv, Toolchain};
    use crate::methods::{create_privatizer, Options};
    use pvr_progimage::{link, ImageSpec, Language};

    /// The matrix's migration column, which must agree with what the
    /// live implementations report.
    fn migration_claim(method: Method) -> Option<bool> {
        match method {
            Method::ManualRefactor
            | Method::Photran
            | Method::Swapglobals
            | Method::TlsGlobals
            | Method::PieGlobals
            | Method::CowGlobals => Some(true),
            Method::MpcPrivatize | Method::PipGlobals | Method::FsGlobals => Some(false),
            Method::Unprivatized => None,
        }
    }

    #[test]
    fn table1_has_five_rows() {
        assert_eq!(table1().len(), 5);
    }

    #[test]
    fn table3_extends_table1_with_new_methods() {
        let t3 = table3();
        assert_eq!(t3.len(), 8);
        assert_eq!(t3[5].display_name, "PIPglobals");
        assert_eq!(t3[6].display_name, "FSglobals");
        assert_eq!(t3[7].display_name, "PIEglobals");
        assert_eq!(t3[7].migration_support, "Yes");
    }

    #[test]
    fn matrix_matches_implementations() {
        // The table's migration column must agree with the code.
        let bin = link(
            ImageSpec::builder("m")
                .language(Language::Fortran)
                .global("g", 8)
                .build(),
        );
        for row in table3() {
            let Some(claim) = migration_claim(row.method) else {
                continue;
            };
            // pick an environment where this method can be constructed
            let toolchain = match row.method {
                crate::Method::Swapglobals => Toolchain::legacy_ld(),
                crate::Method::MpcPrivatize => {
                    let mut t = Toolchain::bridges2();
                    t.compiler.mpc_patched = true;
                    t
                }
                _ => Toolchain::bridges2(),
            };
            let env = PrivatizeEnv::new(bin.clone()).with_toolchain(toolchain);
            let p = create_privatizer(row.method, env, Options::default())
                .unwrap_or_else(|e| panic!("{} must construct: {e}", row.display_name));
            assert_eq!(
                p.supports_migration(),
                claim,
                "{} migration claim out of sync",
                row.display_name
            );
        }
    }
}
