//! Figure 6 in motion: one query planned as every data-path alternative,
//! executed for real, then replayed through the credit-based flow simulator
//! (§7.1) and offered to the serving layer's flow-priced admission control
//! (§7.3).
//!
//! ```text
//! cargo run --release --example full_pipeline
//! ```

use std::sync::Arc;

use rheo::bench::workload;
use rheo::core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use rheo::core::session::Session;
use rheo::fabric::flow::FlowSim;
use rheo::fabric::topology::{DisaggregatedConfig, Topology};
use rheo::serve::admission::{AdmissionController, Verdict};
use rheo::sim::SimDuration;

const QUERY: &str = "SELECT l_region, COUNT(*) AS n, SUM(l_price) AS revenue \
                     FROM lineitem WHERE l_shipdate BETWEEN 100 AND 1500 \
                     GROUP BY l_region";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::in_memory()?;
    session.create_table("lineitem", &[workload::lineitem(300_000, 5)])?;
    let profiles = session.profiles();
    let cpu = session.optimizer().site().cpu;

    println!("query: {QUERY}\n");
    let logical = session.logical_plan(QUERY)?;
    let variants = session.variants(&logical)?;

    // Execute every alternative for real and replay it in simulated time.
    println!(
        "{:<20} {:>14} {:>14} {:>12}",
        "variant", "bytes moved", "sim time", "result rows"
    );
    let mut reference = None;
    let mut best_specs = None;
    for v in &variants {
        let result = session.execute_plan(&v.plan)?;
        match &reference {
            None => reference = Some(result.batch.canonical_rows()),
            Some(r) => assert_eq!(r, &result.batch.canonical_rows()),
        }
        let specs = PipelineGraph::compile(&v.plan, Some(&profiles), None, DEFAULT_QUEUE_CAPACITY)
            .to_flow_specs(cpu, &v.plan.variant)?;
        let mut sim = FlowSim::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        for spec in &specs {
            sim.add_pipeline(spec.clone());
        }
        best_specs.get_or_insert(specs);
        let sim_time = sim.run().pipelines[0].duration().to_string();
        println!(
            "{:<20} {:>14} {:>14} {:>12}",
            v.plan.variant,
            result.ledger.cross_device_bytes(),
            sim_time,
            result.batch.rows()
        );
    }

    // Admission at work: offer three copies of the best variant back to
    // back. Each copy's flow specs are priced as per-link bytes against
    // `bandwidth × window`. With a 1 ms window two copies fit side by side;
    // the third queues until a release frees capacity.
    println!("\nadmission verdicts (§7.3):");
    let specs = best_specs.ok_or("optimizer produced no variants")?;
    let mut admission = AdmissionController::with_window(
        Arc::clone(session.topology()),
        SimDuration::from_millis(1),
        32,
    );
    let mut tickets = Vec::new();
    for q in 0..3 {
        let demand = admission.demand_of(&specs)?;
        let busiest = demand.values().max().copied().unwrap_or(0);
        let verdict = admission.offer(demand);
        println!(
            "  query {q}: variant '{}', busiest link {busiest} B: {verdict:?}",
            variants[0].plan.variant
        );
        if let Verdict::Admitted(t) | Verdict::Queued(t) = verdict {
            tickets.push(t);
        }
    }
    for t in tickets {
        for admitted in admission.release(t) {
            println!("  released {t:?}: admitted queued {admitted:?}");
        }
    }
    println!("  all released — links free again");
    Ok(())
}
