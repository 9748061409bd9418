//! Timing diagrams and contention forensics for an arbitrary mapping:
//! renders the Figure 4/5-style Gantt chart, lists contention events and
//! shows the per-resource occupancy lists.
//!
//! Run with: `cargo run -p noc --example timing_diagram`

use noc::apps::embedded::{image_encoding, ImageEncodingConfig};
use noc::prelude::*;
use noc::sim::gantt::GanttChart;
use noc::sim::Resource;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = image_encoding(&ImageEncodingConfig::new(6));
    let mesh = Mesh::new(3, 2)?;
    let params = SimParams::new();

    // A deliberately poor mapping: consecutive pipeline stages far apart.
    let bad = Mapping::from_tiles(&mesh, [0, 5, 1, 4, 2].map(TileId::new))?;
    // A sensible mapping: stages in a chain of neighbours.
    let good = Mapping::from_tiles(&mesh, [0, 1, 2, 5, 4].map(TileId::new))?;

    for (name, mapping) in [("scattered", &bad), ("chained", &good)] {
        let sched = schedule(&app, &mesh, mapping, &params)?;
        println!("=== {name} mapping {mapping} ===");
        println!("{}", GanttChart::from_schedule(&sched, &app).render(100));
        let packets = sched.packets();
        let latency: u64 = packets.iter().map(|p| p.latency()).sum();
        println!(
            "texec {} cycles; mean latency {:.1}; contention {} cycles in {} events",
            sched.texec_cycles(),
            latency as f64 / packets.len().max(1) as f64,
            sched.total_contention_cycles(),
            sched.contention_events().len()
        );
        for ev in sched.contention_events().iter().take(5) {
            let p = app.packet(ev.packet);
            println!(
                "  contention: {} bits {}→{} waited {} cycles for link {}",
                p.bits,
                app.core_name(p.src).unwrap_or("?"),
                app.core_name(p.dst).unwrap_or("?"),
                ev.delay(),
                ev.link
            );
        }
        println!("  busiest links (bits):");
        // Bits carried by each inter-router link, busiest first.
        let mut loads: Vec<_> = sched
            .occupancy()
            .iter()
            .filter_map(|(resource, occs)| match resource {
                Resource::Link(link) if link.is_internal() => {
                    Some((link, occs.iter().map(|o| o.bits).sum::<u64>()))
                }
                _ => None,
            })
            .collect();
        loads.sort_by_key(|&(link, bits)| (std::cmp::Reverse(bits), link));
        for (link, bits) in loads.into_iter().take(3) {
            println!("    {link}: {bits}");
        }
        println!();
    }
    Ok(())
}
