//! `rocket-node` — one OS process of a socket-connected Rocket cluster.
//!
//! Every process joins the same mesh the in-process socket cluster uses
//! (`SocketTransport::join` behind the `Transport` trait). Two modes:
//!
//! * **Health check** (default) — establish the full mesh — listener,
//!   rank handshakes, per-peer ordered connections — run an all-to-all
//!   ping round, report the traffic counters, exit.
//! * **Worker** (`--serve`) — enter the cluster worker loop
//!   (`rocket::cluster::serve`) and execute scenario jobs shipped by the
//!   driver at rank 0 (any program owning a `ClusterBackend`, e.g. a
//!   study runner calling `ClusterBackend::join`) until shut down.
//!
//! ```text
//! rocket-node --rank R --peers HOST:PORT,HOST:PORT,... [--serve]
//! ```
//!
//! Example, a driver plus two worker processes on one machine:
//!
//! ```text
//! rocket-node --rank 1 --peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702 --serve &
//! rocket-node --rank 2 --peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702 --serve &
//! my-study-driver   # rank 0: ClusterBackend::join(addrs), Study::run(...)
//! ```

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use rocket::cluster::{serve, DRIVER_RANK};
use rocket::comm::{SocketTransport, Transport};
use rocket::sim::SimBackend;

fn usage() -> ExitCode {
    eprintln!("usage: rocket-node --rank R --peers HOST:PORT,HOST:PORT,... [--serve]");
    eprintln!("(the address at index R of --peers is this process's listen address;");
    eprintln!(" --serve runs the cluster worker loop instead of the ping health check)");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut rank: Option<usize> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut serve_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serve" => serve_mode = true,
            "--rank" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => rank = Some(v),
                None => return usage(),
            },
            "--peers" => match args.next() {
                Some(list) => {
                    for part in list.split(',') {
                        match part.trim().parse() {
                            Ok(addr) => peers.push(addr),
                            Err(e) => {
                                eprintln!("bad peer address '{part}': {e}");
                                return usage();
                            }
                        }
                    }
                }
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let Some(rank) = rank else { return usage() };
    if peers.len() < 2 || rank >= peers.len() {
        eprintln!("need at least two peer addresses and rank < peer count");
        return usage();
    }
    if serve_mode && rank == DRIVER_RANK {
        eprintln!("rank {DRIVER_RANK} is the driver; workers serve from ranks 1..");
        return usage();
    }

    eprintln!(
        "[rank {rank}] joining a {}-node mesh on {}",
        peers.len(),
        peers[rank]
    );
    let transport = match SocketTransport::join(rank, &peers) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[rank {rank}] mesh establishment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("[rank {rank}] mesh up: {} peers connected", peers.len() - 1);

    if serve_mode {
        eprintln!("[rank {rank}] serving jobs on the sim backend");
        let report = serve(&transport, &SimBackend::new());
        eprintln!(
            "[rank {rank}] served {} job(s), answered {} ping(s), {}",
            report.jobs,
            report.pings,
            if report.clean_exit {
                "shut down by the driver"
            } else {
                "driver connection lost"
            }
        );
        // Either way the worker did its job; losing the driver is not a
        // worker-side failure.
        return ExitCode::SUCCESS;
    }

    // Health check: one ping to every peer, one expected from each.
    for peer in 0..transport.cluster_size() {
        if peer != rank
            && transport
                .send(peer, bytes::Bytes::from(vec![rank as u8]))
                .is_err()
        {
            eprintln!("[rank {rank}] peer {peer} hung up before the ping round");
            return ExitCode::FAILURE;
        }
    }
    let mut seen = vec![false; transport.cluster_size()];
    for _ in 0..transport.cluster_size() - 1 {
        match transport.recv_timeout(Duration::from_secs(30)) {
            Ok(msg) => {
                if msg.payload.as_ref() != [msg.from as u8] {
                    eprintln!("[rank {rank}] corrupt ping from {}", msg.from);
                    return ExitCode::FAILURE;
                }
                seen[msg.from] = true;
            }
            Err(e) => {
                eprintln!("[rank {rank}] ping round failed: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let heard: Vec<usize> = (0..seen.len()).filter(|&n| seen[n]).collect();
    let stats = transport.stats().snapshot();
    println!(
        "[rank {rank}] ok: heard from {heard:?}; sent {} msgs / {} B, received {} msgs / {} B",
        stats.msgs_sent, stats.bytes_sent, stats.msgs_recv, stats.bytes_recv
    );
    // A real worker would now enter the node engine's conductor loop; the
    // transport handle it needs is exactly the one this skeleton holds.
    ExitCode::SUCCESS
}
