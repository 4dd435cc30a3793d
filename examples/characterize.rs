//! Characterize: run the paper's measurement on one simulated machine
//! and print a Table-2/3-style column for encode and decode.
//!
//! ```text
//! cargo run --release --example characterize [frames] [slices] [threads]
//! ```
//!
//! `slices` partitions each VOP into that many independently decodable
//! macroblock-row slices (a bitstream parameter); `threads` is the
//! worker count the slices are scheduled onto (0 = `M4PS_THREADS` or
//! the machine's parallelism for encode, one worker on the caller for
//! decode). The stream and the paper metrics are identical for every
//! thread count.

use m4ps::core::report::{format_cell, METRIC_ROWS};
use m4ps::core::study::{decode_study_with, encode_study, prepare_streams, StudyConfig, Workload};
use m4ps::memsim::MachineSpec;
use m4ps::vidgen::Resolution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let frames: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(6);
    let slices: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(1);
    let threads: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(0);
    let machine = MachineSpec::o2();
    let workload = Workload::single(Resolution::PAL, frames);
    let config = StudyConfig::paper().with_parallel(slices, threads);

    println!(
        "machine: {} ({}, L2 {} MB); workload: {} at {}x{}, {} frames, {} slice(s)\n",
        machine.name,
        machine.cpu.short_name(),
        machine.l2.size_bytes / (1024 * 1024),
        workload.label(),
        workload.resolution.width,
        workload.resolution.height,
        frames,
        slices
    );

    println!("encoding (this simulates every memory access; expect ~0.5 s/frame)...");
    let enc = encode_study(&machine, &workload, &config)?;
    println!("decoding...");
    let streams = prepare_streams(&workload, &config)?;
    let dec = decode_study_with(&machine, &workload, &streams, &config)?;

    println!("\n{:22} {:>14} {:>14}", "metrics", "encoding", "decoding");
    println!("{}", "-".repeat(52));
    for (row, label) in METRIC_ROWS.iter().enumerate() {
        println!(
            "{:22} {:>14} {:>14}",
            label,
            format_cell(&enc.metrics, row),
            format_cell(&dec.metrics, row)
        );
    }
    println!(
        "\nencode: {} VOPs, {} bitstream bytes, {:.1} M search candidates",
        enc.session.vops,
        enc.session.bytes,
        enc.session.totals.candidates as f64 / 1.0e6
    );
    println!(
        "simulated exec time: encode {:.2} s, decode {:.2} s (at {} MHz)",
        enc.metrics.exec_seconds, dec.metrics.exec_seconds, machine.clock_mhz
    );
    println!(
        "bus utilization: encode {:.2}%, decode {:.2}% of {:.0} MB/s sustained",
        enc.metrics.bus_utilization(&machine) * 100.0,
        dec.metrics.bus_utilization(&machine) * 100.0,
        machine.dram.sustained_mb_s
    );
    Ok(())
}
