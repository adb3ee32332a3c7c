//! Shadow prices from the LP substrate: which TAM limits the SOC?
//!
//! The paper's final optimization step solves the Section 3.2 ILP; its
//! LP relaxation carries *dual values* — the marginal testing-time cost
//! of each constraint. A positive dual on a TAM's load row marks a TAM
//! that limits the makespan; zero-dual TAMs have slack. This example
//! builds the relaxation for d695 on a 3-TAM architecture with
//! `tamopt::assign::ilp::build_model`, solves it with duals through
//! `tamopt::lp`, and reads the bottleneck structure off the shadow
//! prices.
//!
//! Run with: `cargo run --release --example lp_duals`

use tamopt::assign::ilp::build_model;
use tamopt::{benchmarks, CostMatrix, TamSet, TimeTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = benchmarks::d695();
    let widths = [8u32, 8, 16];
    let table = TimeTable::new(&soc, 32)?;
    let n = table.num_cores();
    let b = widths.len();

    // Rows 0..b are the TAM load rows, rows b..b + n the core rows.
    let costs = CostMatrix::from_table(&table, &TamSet::new(widths)?)?;
    let (primal, dual) = build_model(&costs).solve_with_duals()?;
    println!("LP relaxation of the Section 3.2 model, d695 on TAMs {widths:?}");
    println!("  fractional makespan : {:.1} cycles", primal.objective());
    println!(
        "  strong duality gap  : {:.2e}\n",
        (dual.dual_objective() - primal.objective()).abs()
    );

    println!("shadow prices of the TAM load rows (constraints 0..{b}):");
    for (t, &width) in widths.iter().enumerate() {
        println!(
            "  TAM {} (w={:>2}): dual {:+.4}  {}",
            t + 1,
            width,
            dual.dual(t),
            if dual.dual(t).abs() > 1e-9 {
                "binding — this TAM limits the makespan"
            } else {
                "slack — finishing early in the relaxation"
            }
        );
    }

    println!("\nper-core assignment duals (marginal cost of hosting each core):");
    let mut priced: Vec<(usize, f64)> = (0..n).map(|core| (core, dual.dual(b + core))).collect();
    priced.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    for (core, price) in priced.iter().take(5) {
        println!(
            "  {:<8} costs {:+9.1} cycles of makespan to host",
            soc.core(*core).expect("index in range").name(),
            price
        );
    }
    println!("\nThe expensive cores are the ones Core_assign places first; the LP's");
    println!("shadow prices recover the same priority order from pure duality.");
    Ok(())
}
