//! Quickstart: instrument the paper's Figure 1 program and watch BigFoot
//! coalesce six per-access checks into one.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bigfoot_bfj::{compile, parse_program, pretty, CompiledVm, SchedPolicy};
use bigfoot_detectors::Detector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        class Point {
            field x; field y; field z;
            meth move(dx, dy, dz) {
                tmp = this.x;
                this.x = tmp + dx;
                tmp = this.y;
                this.y = tmp + dy;
                tmp = this.z;
                this.z = tmp + dz;
                return 0;
            }
            meth movePts(a, lo, hi) {
                for (i = lo; i < hi; i = i + 1) {
                    p = a[i];
                    r = p.move(1, 1, 1);
                }
                return 0;
            }
        }
        main {
            n = 64;
            a = new_array(n);
            for (i = 0; i < n; i = i + 1) { a[i] = new Point; }
            pt = a[0];
            r = pt.movePts(a, 0, n);
        }
    "#;

    let program = parse_program(source)?;
    println!("=== BigFoot static check placement (paper Fig. 1) ===\n");
    let inst = bigfoot::instrument(&program);
    println!("{}", pretty(&inst.program));
    println!(
        "static analysis: {} methods in {:.2} ms ({:.3} ms/method)\n",
        inst.stats.methods,
        inst.stats.total_time.as_secs_f64() * 1e3,
        inst.stats.time_per_method().as_secs_f64() * 1e3,
    );

    // Lower both programs to bytecode, run the instrumented one under
    // DynamicBF and the original under FastTrack, and compare the work
    // each detector did.
    let mut bf = Detector::bigfoot(inst.proxies.clone());
    CompiledVm::new(&compile(&inst.program), SchedPolicy::default()).run(&mut bf)?;
    let bf = bf.finish();

    let mut ft = Detector::fasttrack();
    CompiledVm::new(&compile(&program), SchedPolicy::default()).run(&mut ft)?;
    let ft = ft.finish();

    println!("=== dynamic race detection ===");
    println!("{:<22} {:>12} {:>12}", "", "FastTrack", "BigFoot");
    println!(
        "{:<22} {:>12} {:>12}",
        "heap accesses",
        ft.accesses(),
        bf.accesses()
    );
    println!("{:<22} {:>12} {:>12}", "checks", ft.checks, bf.checks);
    println!(
        "{:<22} {:>12.3} {:>12.3}",
        "check ratio",
        ft.check_ratio(),
        bf.check_ratio()
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "shadow operations", ft.shadow_ops, bf.shadow_ops
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "shadow space (units)", ft.shadow_space_end, bf.shadow_space_end
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "races",
        ft.races.len(),
        bf.races.len()
    );
    assert!(!ft.has_races() && !bf.has_races());
    println!("\nBoth detectors agree the program is race-free — BigFoot just did");
    println!(
        "{}x fewer shadow operations to prove it.",
        ft.shadow_ops / bf.shadow_ops.max(1)
    );
    Ok(())
}
