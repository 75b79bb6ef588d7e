//! Figure 3: "DoppioJVM's performance on our benchmark applications
//! relative to the HotSpot JVM interpreter ... DoppioJVM runs between
//! 24x and 42x slower (geometric mean: 32x) than the HotSpot
//! interpreter in Google Chrome."
//!
//! Reproduction: each macro workload runs once natively (the HotSpot
//! analog) and once per simulated browser; rows report the virtual
//! wall-clock slowdown. Note Safari's pathological `disasm` column —
//! the typed-array leak of §7.1 pushes it into paging. Per-workload
//! virtual-clock cycles and interpreter cache hit rates are appended
//! to `BENCH_interp.json`.
//!
//! Set `DOPPIO_BENCH_LIGHT=1` (the CI smoke profile) to skip the
//! hosted-browser sweep and keep only the native measurements.

use doppio_bench::results::{self, Section};
use doppio_bench::{geomean, ratio, rule};
use doppio_jsengine::Browser;
use doppio_workloads::{run_workload, MACRO_WORKLOADS};

fn main() {
    println!("Figure 3: macro benchmarks, slowdown vs the native interpreter baseline");
    println!("(paper: Chrome 24x-42x slower, geomean 32x; Safari pathological on javap)\n");

    let light = results::light_profile();
    let browsers: &[Browser] = if light { &[] } else { &Browser::EVALUATED };
    let mut sections: Vec<(String, Section)> = Vec::new();

    print!("{:>14} |", "workload");
    for b in browsers {
        print!("{:>9}", b.name());
    }
    println!("{:>12}", "native(ms)");
    rule(14 + 2 + 9 * browsers.len() + 12);

    let mut per_browser: Vec<Vec<f64>> = vec![Vec::new(); browsers.len()];
    for id in MACRO_WORKLOADS {
        let native = run_workload(id, Browser::Native);
        assert!(native.uncaught.is_none(), "{id} failed natively");
        sections.push((format!("fig3_macro.{id}"), results::run_section(&native)));
        print!("{:>14} |", id);
        for (i, &b) in browsers.iter().enumerate() {
            let hosted = run_workload(id, b);
            assert_eq!(hosted.stdout, native.stdout, "{id} output differs on {b}");
            let slowdown = hosted.wall_ns as f64 / native.wall_ns as f64;
            per_browser[i].push(slowdown);
            print!("{:>9}", ratio(slowdown));
        }
        println!("{:>12.1}", native.wall_ns as f64 / 1e6);
    }
    rule(14 + 2 + 9 * browsers.len() + 12);
    print!("{:>14} |", "geomean");
    for g in per_browser.iter().map(|v| geomean(v)) {
        print!("{:>9}", ratio(g));
    }
    println!();

    let path = results::write_sections(sections);
    println!("\nresults appended to {}", path.display());

    if light {
        return;
    }
    println!("Shape checks:");
    let chrome = geomean(&per_browser[0]);
    println!(
        "  Chrome geomean {} (paper: ~32x; 24x-42x per-benchmark range)",
        ratio(chrome)
    );
    let fastest = per_browser
        .iter()
        .enumerate()
        .min_by(|a, b| geomean(a.1).total_cmp(&geomean(b.1)))
        .map(|(i, _)| browsers[i].name())
        .unwrap_or("?");
    println!("  Fastest browser: {fastest} (paper: Chrome)");
    let safari_disasm = per_browser[2][0];
    let safari_rest = geomean(&per_browser[2][1..]);
    println!(
        "  Safari disasm {} vs Safari others {} (paper: javap pathological in Safari)",
        ratio(safari_disasm),
        ratio(safari_rest)
    );
}
