//! E11 — the compile service: client latency and batching throughput
//! against a live `vericomp-serve` daemon. Emits `BENCH_daemon.json`.
//!
//! One in-process server (4 shards, unbounded store) serves every regime
//! over its Unix socket, exactly the deployment shape of
//! `vericomp_serve` + `compile_fleet --connect`:
//!
//! * `fleet26/cold_client` — one-shot (recorded in the `latency` note):
//!   first request of the 26-node suite against an empty store, the full
//!   cold path over the wire;
//! * `fleet26/warm_client` — the same request replayed from the warm
//!   shared store, protocol + replay cost only;
//! * `batch4/concurrent_clients` — four clients submit overlapping
//!   4-node specs (plus one never-seen dirty node each) at once; the
//!   server coalesces them into batched sweeps;
//! * `batch4/serial_client` — the identical four specs one after another
//!   on a single connection, the unbatched baseline.
//!
//! The soak: the E10 5 000-task scenario (10k+ units) through the
//! daemon, digest-checked against a solo `run_sweep` of the same spec,
//! then replayed warm (asserted 100% hits, **zero unit bodies
//! uploaded** — the v2 protocol resolves every unit from the parse
//! cache by digest) and warm again from a *fresh* connection that has
//! to negotiate `have`/`need` first (also zero uploads). The daemon's
//! metrics registry — its one counter store — rides along in the summary
//! under the `metrics` note, so `BENCH_daemon.json` records request,
//! batch, cache, eviction, wire and parse-cache counters, per-stage
//! nanosecond totals, the per-request latency, batch-size and
//! queue-depth histograms with p50/p90/p99, and the counter digest next
//! to the timings.
//!
//! Acceptance bars asserted below: the warm served request is at least
//! 5x faster than the cold one, the warm soak beats the recorded v1
//! line-protocol soak by ≥3x at matched machine speed (same
//! compile-span calibration as the E12 analyzer bar — the compile
//! stage is byte-identical code between the recording and this bench),
//! the flight recorder costs < 3% on the warm soak vs a `--no-recorder`
//! daemon (best-of-3 each, 25 ms absolute noise floor), and all digests
//! equal the solo runs.

use std::path::Path;
use std::time::Instant;

use vericomp_arch::MachineConfig;
use vericomp_bench::pipeline::dirty_node;
use vericomp_core::OptLevel;
use vericomp_dataflow::fleet;
use vericomp_pipeline::{
    normalize_spec, Client, Pipeline, PipelineOptions, Server, ServerOptions, SweepSpec,
};
use vericomp_testkit::bench::Bench;
use vericomp_testkit::scenario::{Scenario, ScenarioConfig};

/// The v1 line protocol's recorded E10 warm soak (commit fa47cbf:
/// pretty-print + re-upload + re-parse of all 12 692 units per request),
/// and the same recording's solo compile-stage span for machine
/// calibration — compile is byte-identical code between that recording
/// and this bench, so `measured_compile / recorded_compile` normalizes
/// the asserted speedup the same way the E12 analyzer bar does. The
/// recording ran the solo sweep under `jobs(8)`, so the calibration
/// sweep below does too: per-cell stage spans include worker
/// contention, and the ratio only cancels it when both runs share the
/// same worker count.
const V1_OLD_SOAK_WARM_NS: u64 = 5_400_000_000;
const V1_OLD_COMPILE_NS: u64 = 58_709_781_411;

fn soak_config() -> ScenarioConfig {
    ScenarioConfig::builder()
        .name("scn10k")
        .tasks(5_000)
        .symbols(10, 28)
        .frames(8)
        .seed(0x10_000)
        .build()
        .expect("valid config")
}

fn main() {
    let socket = std::env::temp_dir().join(format!("vericomp-bench-{}.sock", std::process::id()));
    let server = Server::new(&ServerOptions::new(&socket)).expect("binds");
    let handle = std::thread::spawn(move || server.run().expect("serves"));

    let suite = fleet::named_suite();
    let spec = normalize_spec(
        &SweepSpec::new().nodes(&suite).level(OptLevel::Verified),
        &MachineConfig::mpc755(),
    );
    let solo = Pipeline::in_memory().run_sweep(&spec).expect("solo sweep");

    // cold latency is a one-shot: the store is only empty once
    let mut client = Client::connect(&socket).expect("connects");
    let t = Instant::now();
    let cold = client.run_sweep(&spec).expect("cold request");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.digest, solo.digest(), "cold served digest != solo");

    let mut g = Bench::group("daemon");
    g.bench("fleet26/warm_client", || {
        let r = client.run_sweep(&spec).expect("warm request");
        assert_eq!(r.digest, solo.digest(), "warm served digest != solo");
        r.stats.jobs_cached
    });
    let warm_ns = g.results()[0].mean_ns;
    println!(
        "daemon: fleet26 cold {cold_ms:.1} ms, warm {:.1} ms over the socket",
        warm_ns / 1e6
    );

    // four overlapping specs; each iteration dirties one never-seen node
    // per client so every round carries 4 genuine compiles
    let batch_specs = |revision: u32| -> Vec<SweepSpec> {
        (0..4u32)
            .map(|i| {
                let lo = (i as usize) * 4;
                let mut nodes = suite[lo..lo + 4].to_vec();
                nodes.push(dirty_node(revision * 4 + i));
                normalize_spec(
                    &SweepSpec::new().nodes(&nodes).level(OptLevel::Verified),
                    &MachineConfig::mpc755(),
                )
            })
            .collect()
    };

    let mut revision = 0u32;
    let mut pool: Vec<Client> = (0..4)
        .map(|_| Client::connect(&socket).expect("connects"))
        .collect();
    g.bench("batch4/concurrent_clients", || {
        let specs = batch_specs(revision);
        revision += 1;
        std::thread::scope(|s| {
            let joins: Vec<_> = pool
                .iter_mut()
                .zip(&specs)
                .map(|(c, spec)| s.spawn(move || c.run_sweep(spec).expect("served").cells.len()))
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread"))
                .sum::<usize>()
        })
    });
    g.bench("batch4/serial_client", || {
        let specs = batch_specs(revision);
        revision += 1;
        specs
            .iter()
            .map(|spec| client.run_sweep(spec).expect("served").cells.len())
            .sum::<usize>()
    });

    // the E10 soak: the 5k-task scenario (10k+ units) through the daemon,
    // bit-identical to a solo run of the same lowered spec
    let scenario = Scenario::generate(&soak_config()).expect("generates");
    let units = scenario.units().len();
    assert!(units >= 10_000, "soak workload shrank to {units} units");
    let soak_spec = normalize_spec(&scenario.to_sweep_spec(), &MachineConfig::mpc755());
    // jobs(8) matches the recorded run that produced V1_OLD_COMPILE_NS
    // (see the constant's doc comment) — the calibration ratio is only
    // meaningful under the recording's worker count
    let solo_soak = Pipeline::new(
        &PipelineOptions::builder()
            .jobs(8)
            .build()
            .expect("valid options"),
    )
    .expect("in-memory pipeline")
    .run_sweep(&soak_spec)
    .expect("solo soak");
    let t = Instant::now();
    let served_soak = client.run_sweep(&soak_spec).expect("soak request");
    let soak_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        served_soak.digest,
        solo_soak.digest(),
        "soak served digest != solo"
    );
    let before_warm = client.server_stats().expect("stats");
    let t = Instant::now();
    let warm_soak = client.run_sweep(&soak_spec).expect("warm soak");
    let soak_warm_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm_soak.stats.jobs_cached, units as u64, "soak not warm");
    assert_eq!(warm_soak.digest, solo_soak.digest(), "warm soak != solo");
    let after_warm = client.server_stats().expect("stats");
    assert_eq!(
        after_warm.units_uploaded, before_warm.units_uploaded,
        "warm soak uploaded unit bodies"
    );
    println!(
        "daemon: scenario soak {units} units cold {soak_ms:.0} ms, \
         warm {soak_warm_ms:.0} ms (0 bodies uploaded), digest {}",
        served_soak.digest
    );

    // a fresh connection knows nothing: it must negotiate, and the
    // negotiation must conclude every digest is already parse-cached
    let mut fresh = Client::connect(&socket).expect("connects");
    let t = Instant::now();
    let fresh_soak = fresh.run_sweep(&soak_spec).expect("fresh warm soak");
    let soak_fresh_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fresh_soak.digest, solo_soak.digest(), "fresh soak != solo");
    let after_fresh = fresh.server_stats().expect("stats");
    assert_eq!(
        after_fresh.units_uploaded, after_warm.units_uploaded,
        "fully-cached fresh client uploaded unit bodies"
    );
    assert!(
        after_fresh.units_offered > after_warm.units_offered,
        "fresh client skipped negotiation"
    );
    println!(
        "daemon: fresh-client warm soak {soak_fresh_ms:.0} ms (negotiated, 0 bodies uploaded)"
    );

    let server_stats = client.server_stats().expect("stats");
    println!(
        "daemon: request latency p50 {:.1} ms p99 {:.1} ms over {} requests \
         (proto 2.{})",
        server_stats.request_p50_ns as f64 / 1e6,
        server_stats.request_p99_ns as f64 / 1e6,
        server_stats.requests,
        server_stats.proto_minor,
    );
    // E12-style machine calibration: the recorded 5.4 s warm soak came
    // with a recorded solo compile span; the same compile code just ran
    // in this process, so the span ratio is this host's speed factor
    #[allow(clippy::cast_precision_loss)]
    let machine = solo_soak.stats.compile_ns as f64 / V1_OLD_COMPILE_NS as f64;
    #[allow(clippy::cast_precision_loss)]
    let raw_soak_speedup = V1_OLD_SOAK_WARM_NS as f64 / (soak_warm_ms * 1e6);
    let soak_speedup = raw_soak_speedup * machine;
    println!(
        "daemon: warm soak {soak_warm_ms:.0} ms vs recorded v1 {:.0} ms -> \
         {soak_speedup:.1}x at matched machine speed ({raw_soak_speedup:.1}x \
         raw, host {machine:.2}x the recording's compile throughput; bar: 3x)",
        V1_OLD_SOAK_WARM_NS as f64 / 1e6,
    );

    g.note(
        "latency",
        &format!(
            "{{\"fleet26_cold_ms\":{cold_ms:.2},\"fleet26_warm_ms\":{:.2},\
             \"soak_units\":{units},\"soak_cold_ms\":{soak_ms:.1},\
             \"soak_warm_ms\":{soak_warm_ms:.1},\
             \"soak_fresh_warm_ms\":{soak_fresh_ms:.1},\
             \"old_soak_warm_ns\":{V1_OLD_SOAK_WARM_NS},\
             \"old_compile_ns\":{V1_OLD_COMPILE_NS},\
             \"soak_speedup\":{soak_speedup:.2},\
             \"raw_soak_speedup\":{raw_soak_speedup:.2},\
             \"machine\":{machine:.3}}}",
            warm_ns / 1e6
        ),
    );
    g.note("stats", &warm_soak.stats.to_json());
    g.note("metrics", &client.server_metrics().expect("metrics"));

    // recorder overhead on the warm soak: best-of-3 against the main
    // daemon (recorder on, store already warm), then best-of-3 against a
    // fresh --no-recorder daemon warmed by one cold soak of the same spec
    let best_of_warm = |c: &mut Client, runs: u32| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..runs {
            let t = Instant::now();
            let r = c.run_sweep(&soak_spec).expect("warm soak");
            assert_eq!(r.digest, solo_soak.digest(), "warm soak != solo");
            best = best.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        best
    };
    let rec_on_ns = best_of_warm(&mut client, 3);

    let mut admin = Client::connect(&socket).expect("connects");
    admin.shutdown().expect("acknowledged");
    let final_stats = handle.join().expect("clean run");
    assert!(!socket.exists(), "socket must be removed on shutdown");
    assert!(final_stats.requests > 0);

    let off_socket =
        std::env::temp_dir().join(format!("vericomp-bench-norec-{}.sock", std::process::id()));
    let mut off_options = ServerOptions::new(&off_socket);
    off_options.recorder = false;
    let off_server = Server::new(&off_options).expect("binds");
    let off_handle = std::thread::spawn(move || off_server.run().expect("serves"));
    let mut off_client = Client::connect(&off_socket).expect("connects");
    let warmed = off_client.run_sweep(&soak_spec).expect("cold soak");
    assert_eq!(
        warmed.digest,
        solo_soak.digest(),
        "no-recorder soak != solo"
    );
    let rec_off_ns = best_of_warm(&mut off_client, 3);
    off_client.shutdown().expect("acknowledged");
    off_handle.join().expect("clean run");

    #[allow(clippy::cast_precision_loss)]
    let rec_overhead = rec_on_ns as f64 / rec_off_ns as f64 - 1.0;
    println!(
        "daemon: recorder overhead on warm soak {:+.2}% (on {:.0} ms, off {:.0} ms; bar < 3%)",
        rec_overhead * 100.0,
        rec_on_ns as f64 / 1e6,
        rec_off_ns as f64 / 1e6,
    );
    g.note(
        "recorder",
        &format!(
            "{{\"warm_on_ns\":{rec_on_ns},\"warm_off_ns\":{rec_off_ns},\
             \"overhead\":{rec_overhead:.4}}}"
        ),
    );
    // 25 ms absolute noise floor keeps sub-second denominators from
    // turning scheduler jitter into a spurious percentage failure
    assert!(
        rec_on_ns <= rec_off_ns + rec_off_ns * 3 / 100 + 25_000_000,
        "flight recorder costs more than 3% on the warm soak:          on {rec_on_ns} ns vs off {rec_off_ns} ns ({:+.2}%)",
        rec_overhead * 100.0,
    );

    println!("{}", g.render());
    let path = g.write_json(Path::new(".")).expect("writes summary");
    println!("wrote {}", path.display());

    let speedup = cold_ms * 1e6 / warm_ns;
    println!("warm served request speedup vs cold: {speedup:.1}x (bar: 5x)");
    assert!(
        speedup >= 5.0,
        "warm daemon replay regressed below 5x vs cold: {speedup:.2}x"
    );
    assert!(
        soak_speedup >= 3.0,
        "warm soak regressed below 3x vs the recorded v1 protocol: \
         {soak_speedup:.2}x ({raw_soak_speedup:.2}x raw, machine factor \
         {machine:.2})"
    );
}
