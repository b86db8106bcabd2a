//! The order statistics and the A/B verdicts on fixed inputs.

use cellfi_benchmark::compare::{compare_files, compare_metric, Verdict};
use cellfi_benchmark::spec::Spec;
use cellfi_benchmark::stats::{median, percentile, quartiles};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(data, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
    assert_eq!(
        quartiles(&[0.5, 2.5, 1.0, 4.0, 3.5, 9.0]),
        (0.875, 3.0, 5.25)
    );
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u64> = (1..=200).rev().collect();
    assert_eq!(percentile(&v, 0.5), 100);
    assert_eq!(percentile(&v, 0.99), 198);
    assert_eq!(percentile(&v, 1.0), 200);
    assert_eq!(percentile(&[], 0.99), 0);
}

/// Ten parent runs around 100 with an interquartile distance of 2.
const BASE: [f64; 10] = [
    100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0,
];

fn scaled(k: f64) -> Vec<f64> {
    BASE.iter().map(|b| b * k).collect()
}

#[test]
fn verdicts_on_fixed_inputs() {
    let v = |cand: &[f64], higher: bool| compare_metric(&BASE, cand, higher, 0.1).verdict;
    // Every pair won, by more than the parent's spread.
    assert_eq!(v(&scaled(1.05), true), Verdict::Improved);
    assert_eq!(v(&scaled(0.95), false), Verdict::Improved);
    // Worse by more than the 10 % bound.
    assert_eq!(v(&scaled(0.85), true), Verdict::Regressed);
    assert_eq!(v(&scaled(1.15), false), Verdict::Regressed);
    // Slightly worse, inside the bound.
    assert_eq!(v(&scaled(0.98), true), Verdict::WithinBound);
    // Better in every pair but by less than the parent's own spread.
    assert_eq!(v(&scaled(1.005), true), Verdict::WithinBound);

    let r = compare_metric(&BASE, &scaled(1.05), true, 0.1);
    assert_eq!((r.wins, r.pairs), (10, 10));
    assert_eq!(r.base, (99.0, 100.0, 101.0));

    // A parent spread wider than the bound cannot resolve a small change.
    let noisy = [
        60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
    ];
    let cand: Vec<f64> = noisy.iter().rev().copied().collect();
    assert_eq!(
        compare_metric(&noisy, &cand, true, 0.1).verdict,
        Verdict::Unresolved
    );
    // ... unless every change run beats every parent run.
    assert_eq!(
        compare_metric(&noisy, &[141.0, 142.0], true, 0.1).verdict,
        Verdict::WithinBound
    );
    let far: Vec<f64> = noisy.iter().map(|v| v + 100.0).collect();
    assert_eq!(
        compare_metric(&noisy, &far, true, 0.1).verdict,
        Verdict::Improved
    );
    // A gain needs ten pairs, however clear.
    assert_eq!(
        compare_metric(&BASE[..9], &scaled(1.5)[..9], true, 0.1).verdict,
        Verdict::WithinBound
    );
}

#[test]
fn compare_files_reports_each_workload_and_metric() {
    let line = |rate: f64| {
        format!(
            "{{\"workload\":\"fleet_chaos\",\"seed\":1,\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{{\"sim_s_per_s\":{{\"value\":{rate},\"unit\":\"s/s\"}}}}}}\n"
        )
    };
    let base: String = BASE.iter().map(|&b| line(b)).collect();
    let cand: String = scaled(0.7).iter().map(|&c| line(c)).collect();
    let (table, regressed) = compare_files(&base, &cand, &Spec::builtin()).expect("valid files");
    assert!(regressed, "{table}");
    let rows: Vec<&str> = table.lines().skip(1).collect();
    assert_eq!(rows.len(), 1, "{table}");
    assert!(rows[0].starts_with("fleet_chaos"), "{table}");
    assert!(rows[0].ends_with("regressed"), "{table}");
    assert!(compare_files("{\"metrics\":{}}", &cand, &Spec::builtin()).is_err());
}
