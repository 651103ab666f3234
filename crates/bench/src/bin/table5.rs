//! Regenerates **Table 5** (and the Table 4 environment header): execution
//! times of the Internal Extinction workflow under
//! {original dispel4py, Laminar local, Laminar remote} × {Simple, Multi}.
//! Exits 1 when the shape is violated.
//!
//! ```text
//! cargo run -p laminar-bench --bin table5 --release
//! ```

use laminar_bench::{fmt_secs, run_astro_direct, run_astro_laminar_detailed, Table5Config, Verdict};

fn main() {
    let cfg = Table5Config::default_profile();

    println!("== Table 4: Execution Engines Configuration (this reproduction) ==");
    println!("{:<22} {:<34} Remote Ex. Engine", "Property", "Local Ex. Engine");
    println!("{:<22} {:<34} HTTP loopback + WAN model", "Substrate", "in-process transport");
    println!("{:<22} {:<34} 25ms one-way, 5MB/s", "WAN model", "none");
    println!("{:<22} {:<34} same", "Env provisioning", "simulated conda (40ms setup)");
    println!(
        "{:<22} {:<34} same",
        "Workload",
        format!("{} coords, {}ms VO latency", cfg.coordinates, cfg.vo_latency.as_millis()),
    );
    println!();

    println!("== Table 5: Execution times of the Internal Extinction ==");
    println!("(paper: 642 / 7.32 | 928.2 / 11.31 | 1002 / 12.94 — shape target:");
    println!(" Multi ≪ Simple; Laminar > dispel4py; remote ≥ local)\n");
    println!("{:<38} {:>14} {:>14}", "Execution Method", "Simple", "Multi");

    let d_simple = run_astro_direct(&cfg, false);
    let d_multi = run_astro_direct(&cfg, true);
    println!("{:<38} {:>14} {:>14}", "original dispel4py", fmt_secs(d_simple), fmt_secs(d_multi));

    let (l_simple, l_simple_out) = run_astro_laminar_detailed(&cfg, false, false);
    let (l_multi, l_multi_out) = run_astro_laminar_detailed(&cfg, true, false);
    println!("{:<38} {:>14} {:>14}", "Local Execution (with Laminar)", fmt_secs(l_simple), fmt_secs(l_multi));

    let (r_simple, _) = run_astro_laminar_detailed(&cfg, false, true);
    let (r_multi, r_multi_out) = run_astro_laminar_detailed(&cfg, true, true);
    println!(
        "{:<38} {:>14} {:>14}",
        "Remote Execution (with Laminar)",
        fmt_secs(r_simple),
        fmt_secs(r_multi)
    );

    println!("\n== Overhead structure (what surrounds pure enactment) ==");
    for (label, out) in
        [("local/simple", &l_simple_out), ("local/multi", &l_multi_out), ("remote/multi", &r_multi_out)]
    {
        println!("{label:<14} {}", out.overhead_report());
    }

    println!("\n== Shape checks ==");
    let speedup = d_simple.as_secs_f64() / d_multi.as_secs_f64().max(1e-9);
    println!("Simple/Multi speedup (dispel4py): {speedup:.1}x  (paper: 87.7x at their scale)");
    let overhead_local = l_simple.as_secs_f64() / d_simple.as_secs_f64().max(1e-9);
    println!("Laminar local overhead vs dispel4py (Simple): {overhead_local:.2}x  (paper: 1.45x)");
    let remote_delta = r_simple.as_secs_f64() / l_simple.as_secs_f64().max(1e-9);
    println!("Remote vs local (Simple): {remote_delta:.2}x  (paper: 1.08x — 'no substantial increase')");

    let verdict = Verdict::of(d_multi < d_simple && l_simple > d_simple && r_simple >= l_simple.mul_f64(0.9));
    println!("\nshape {}", verdict.as_str());
    if verdict == Verdict::Violated {
        std::process::exit(1);
    }
}
