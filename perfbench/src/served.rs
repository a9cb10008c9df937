//! The served workloads, against a `vericomp_serve` daemon run in this
//! process on a Unix socket inside the checkout.
//!
//! * `served_edit` — the developer loop. Set-up warms the daemon with a
//!   seeded scenario. Two closed-loop clients each repeat one request:
//!   lower the scenario with a few never-seen edited units, call
//!   `Client::run_sweep`, `verify`, then `Scenario::check_bounds`. Time
//!   goes to lowering, digests, have/need negotiation, encode/decode,
//!   the wire, parse-cache and store *reads*, batching and the client's
//!   verdict; only the edited units compile.
//! * `served_churn` — one closed-loop client rotates over several seeded
//!   scenarios while the daemon's store and parse cache are bounded
//!   below their combined working set, so every request evicts,
//!   re-uploads and partly recompiles. One client keeps eviction order
//!   deterministic.
//!
//! Every response must pass `verify()` and carry the digest of a solo
//! `run_sweep` of the same request; its schedulability verdict must
//! match the solo one.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vericomp::arch::MachineConfig;
use vericomp::pipeline::proto::{decode_request, decode_response, encode_request, encode_response};
use vericomp::pipeline::{
    cells_digest, normalize_spec, read_frame, CellSummary, Client, Digest, Pipeline,
    PipelineOptions, Request, Response, Server, ServerOptions, ServerStats, SweepResponse,
    SweepResult, SweepSpec, SweepUnit, WireSweep,
};
use vericomp::testkit::scenario::Scenario;

use crate::calib;
use crate::cold::Quality;
use crate::inputs::{self, LEVELS};
use crate::layers::{wait_quantiles, Layers};
use crate::spans::{Adopted, Rec, Tracer, PID_SERVER};
use crate::util::{median, nproc, ns, peak_rss_mb, Ledger, Outcome, OUT_DIR};
use crate::Args;

/// Size of the edited scenario in dataflow symbols (~150 tasks).
const EDIT_SYMBOLS: usize = 9800;
/// Never-seen edited units per request.
const EDITS: usize = 2;
const EDIT_CLIENTS: usize = 2;
/// Scenarios the churn client rotates over, and their size in symbols.
const CHURN_SCENARIOS: usize = 6;
const CHURN_SYMBOLS: usize = 1500;
/// Store and parse-cache bounds as a share of the combined working set:
/// half a scenario short, so each rotation step evicts and recompiles
/// about half a scenario.
const CHURN_BOUND: f64 = 1.0 - 0.5 / CHURN_SCENARIOS as f64;
const SETUP_REPS: usize = 3;
/// Length of a measured segment between two host-speed probes.
const SEGMENT_S: f64 = 0.5;
/// `served_edit` requests also replayed as whole solo sweeps.
const SOLO_REPLAYS: usize = 2;
/// Requests per client in the traced pass.
const TRACED_REQUESTS: usize = 4;

/// A daemon serving on a socket under the output directory.
struct Daemon {
    socket: PathBuf,
    handle: JoinHandle<std::io::Result<ServerStats>>,
}

impl Daemon {
    fn start(
        tag: &str,
        max_bytes: Option<u64>,
        parse_bytes: Option<u64>,
    ) -> Result<Daemon, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let socket = PathBuf::from(format!("{OUT_DIR}/{tag}-{}.sock", std::process::id()));
        let mut options = ServerOptions::new(&socket);
        options.jobs = nproc();
        options.max_bytes = max_bytes;
        if parse_bytes.is_some() {
            options.parse_bytes = parse_bytes;
        }
        let server = Server::new(&options).map_err(|e| format!("starting the daemon: {e}"))?;
        let handle = thread::spawn(move || server.run());
        Ok(Daemon { socket, handle })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connecting: {e}"))
    }

    fn stop(self) -> Result<ServerStats, String> {
        self.client()?
            .shutdown()
            .map_err(|e| format!("stopping the daemon: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "the daemon panicked".to_owned())?
            .map_err(|e| format!("the daemon failed: {e}"))
    }
}

/// One served request as the client saw it. Only what the checks need
/// is kept, so the benchmark's own memory stays out of `peak_rss_mb`.
struct Served {
    /// Raw edit-to-verdict latency.
    latency_ms: f64,
    /// Host-speed factor of the segment the request ran in (see `calib`).
    speed: f64,
    edits: Vec<SweepUnit>,
    digest: Digest,
    cells: u64,
    verified: bool,
    sched: Digest,
    /// Unit digests this client had not yet seen acknowledged, i.e. the
    /// `have` offer of the request (empty: no negotiation roundtrip).
    offer: Vec<Digest>,
    /// The request and response documents, kept for traced requests.
    documents: Option<(SweepSpec, SweepResponse)>,
}

/// The client's view of which digests the server acknowledged, mirrored
/// from outside: a request negotiates exactly the digests not in here.
#[derive(Default)]
struct Acks(HashSet<u128>);

impl Acks {
    fn offer(&self, spec: &SweepSpec) -> Vec<Digest> {
        let mut seen = HashSet::new();
        spec.units()
            .iter()
            .map(|u| u.source_digest())
            .filter(|d| !self.0.contains(&d.0) && seen.insert(d.0))
            .collect()
    }

    fn served(&mut self, spec: &SweepSpec) {
        self.0
            .extend(spec.units().iter().map(|u| u.source_digest().0));
    }
}

/// Where a traced request records: the shared span tree, the client's
/// row in it, the request's trace id, and the adopted-span counts.
#[derive(Clone, Copy)]
struct Traced<'a> {
    tracer: &'a Mutex<Tracer>,
    tid: u32,
    id: u64,
    adopted: &'a Mutex<Vec<Adopted>>,
}

/// Lower, submit, verify and decide one request; when traced, every step
/// is a span and the server's spans are adopted under the call.
fn request(
    client: &mut Client,
    scenario: &Scenario,
    edits: &[SweepUnit],
    acks: &mut Acks,
    trace: Option<Traced<'_>>,
) -> Result<Served, String> {
    let span = |name: &str, parent: Option<usize>| {
        trace.map(|t| {
            t.tracer
                .lock()
                .expect("tracer lock")
                .open(name, t.tid, parent)
        })
    };
    let close = |id: Option<usize>| {
        if let (Some(t), Some(id)) = (trace, id) {
            t.tracer.lock().expect("tracer lock").close(id);
        }
    };
    let t = Instant::now();
    let root = span("request", None);
    let lower = span("dataflow.lower", root);
    let spec = inputs::lower(scenario, &LEVELS, &[], edits);
    close(lower);
    let offer = acks.offer(&spec);
    let call = span("client.run_sweep", root);
    let response = match trace {
        Some(t) => client.run_sweep_traced(&spec, t.id),
        None => client.run_sweep(&spec),
    }
    .map_err(|e| format!("served request failed: {e}"))?;
    close(call);
    acks.served(&spec);
    let verify = span("client.verify", root);
    let verified = response.verify();
    close(verify);
    let check = span("scenario.check", root);
    let report = scenario.check_bounds(&response.configs, &response.machines, |u, c, m| {
        response.get(u, c, m).map(|cell| cell.wcet)
    });
    close(check);
    close(root);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(call)) = (trace, call) {
        let mut tracer = t.tracer.lock().expect("tracer lock");
        let adopted = adopt_server_spans(&mut tracer, call, t.tid, &response);
        t.adopted.lock().expect("adopted lock").push(adopted);
    }
    Ok(Served {
        latency_ms,
        speed: 1.0,
        edits: edits.to_vec(),
        digest: response.digest,
        cells: response.cells.len() as u64,
        verified,
        sched: report.digest(),
        offer,
        documents: trace.map(|_| (spec, response)),
    })
}

/// Places the request's server spans inside its client call: a
/// `server.sweep` span covers their extent, centred in the round trip
/// (the server's clock is not the client's), and the stage and pass
/// spans hang below it.
fn adopt_server_spans(
    tracer: &mut Tracer,
    call: usize,
    tid: u32,
    response: &SweepResponse,
) -> Adopted {
    let busy = response
        .spans
        .iter()
        .filter(|s| s.name != "queue-wait" && s.dur_ns > 0);
    let lo = busy.clone().map(|s| s.ts_ns).min().unwrap_or(0);
    let hi = busy.map(|s| s.ts_ns + s.dur_ns).max().unwrap_or(lo);
    let (call_ts, call_dur) = (tracer.spans[call].ts, tracer.spans[call].dur);
    let offset = call_ts + call_dur.saturating_sub(hi - lo) / 2;
    tracer.spans.push(Rec {
        name: "server.sweep".into(),
        pid: PID_SERVER,
        tid: 1_000_000 + tid,
        ts: offset,
        dur: hi - lo,
        parent: Some(call),
        parallel: false,
        wait: false,
        counted: true,
        detail: String::new(),
    });
    let sweep = tracer.spans.len() - 1;
    tracer.adopt(
        sweep,
        offset.saturating_sub(lo),
        &response.spans,
        PID_SERVER,
    )
}

/// Solo references of one scenario request: the sweep and sched digests
/// a served response must reproduce, plus the bytes it occupies in the
/// store and in the parse cache.
struct Reference {
    digest: Digest,
    sched: Digest,
    store_bytes: u64,
    parse_bytes: u64,
}

/// Runs `spec` solo; returns its reference and the sweep itself.
fn reference(
    pipeline: &Pipeline,
    scenario: &Scenario,
    spec: &SweepSpec,
) -> Result<(Reference, SweepResult), String> {
    let solo = pipeline
        .run_sweep(spec)
        .map_err(|e| format!("solo reference failed: {e}"))?;
    let mut keys = HashSet::new();
    let reference = Reference {
        digest: solo.digest(),
        sched: scenario.check(&solo).digest(),
        store_bytes: solo
            .cells()
            .iter()
            .filter(|c| keys.insert(c.outcome.artifact.key.0))
            .map(|c| c.outcome.artifact.encoded_len())
            .sum(),
        parse_bytes: spec
            .units()
            .iter()
            .map(|u| u.canonical().len() as u64)
            .sum(),
    };
    Ok((reference, solo))
}

/// Checks one served response against its reference; true when correct.
fn judge(out: &mut Outcome, served: &Served, digest: Digest, sched: Digest) -> bool {
    let ok = served.verified && served.digest == digest && served.sched == sched;
    if !ok {
        out.problem(format!(
            "served response (verify {}, digest {}, sched {}) ≠ solo reference (digest {digest}, sched {sched})",
            served.verified, served.digest, served.sched
        ));
    }
    ok
}

/// Checks every `served_edit` response against the solo reference: one
/// solo sweep compiles every edited unit of every request, and each
/// request's expected cells are the warm reference's with its edited
/// units' cells substituted. The first requests are also replayed as
/// whole solo sweeps, to check that substitution gives the solo digest.
/// Returns the cells of correct responses.
fn check_edits(
    out: &mut Outcome,
    solo: &Pipeline,
    scenario: &Scenario,
    base: &SweepResult,
    served: &[&Served],
) -> Result<u64, String> {
    let mut spec = SweepSpec::new();
    for unit in served.iter().flat_map(|s| &s.edits) {
        spec = spec.unit(unit.clone());
    }
    let spec = normalize_spec(&spec.levels(LEVELS), &MachineConfig::mpc755());
    let edited = solo
        .run_sweep(&spec)
        .map_err(|e| format!("solo build of the edits failed: {e}"))?;
    let base = SweepResponse::from_result(base);
    let per_unit = base.configs.len() * base.machines.len();
    let mut next = 0;
    let mut good = 0;
    for (k, s) in served.iter().enumerate() {
        let mut cells = base.cells.clone();
        for unit in &s.edits {
            let at = base
                .units
                .iter()
                .position(|u| *u == unit.name)
                .ok_or("an edit names no scenario unit")?;
            for j in 0..per_unit {
                let c = &edited.cells()[next * per_unit + j];
                cells[at * per_unit + j] = CellSummary {
                    unit: unit.name.clone(),
                    config: c.config.clone(),
                    machine: c.machine.clone(),
                    wcet: c.wcet(),
                    cached: false,
                    verdict: c.outcome.artifact.verdict,
                    output_digest: c.outcome.artifact.output_digest(),
                };
            }
            next += 1;
        }
        let digest = cells_digest(&cells);
        let wcet: HashMap<(&str, &str, &str), u64> = cells
            .iter()
            .map(|c| {
                (
                    (c.unit.as_str(), c.config.as_str(), c.machine.as_str()),
                    c.wcet,
                )
            })
            .collect();
        let sched = scenario
            .check_bounds(&base.configs, &base.machines, |u, c, m| {
                wcet.get(&(u, c, m)).copied()
            })
            .digest();
        if k < SOLO_REPLAYS {
            let (whole, _) = reference(
                solo,
                scenario,
                &inputs::lower(scenario, &LEVELS, &[], &s.edits),
            )?;
            if whole.digest != digest || whole.sched != sched {
                out.problem("substituted reference differs from a whole solo sweep");
            }
        }
        if judge(out, s, digest, sched) {
            good += s.cells;
        } else {
            out.failed += 1;
        }
    }
    Ok(good)
}

fn solo_pipeline() -> Result<Pipeline, String> {
    let options = PipelineOptions::builder()
        .jobs(nproc())
        .build()
        .map_err(|e| e.to_string())?;
    Pipeline::new(&options).map_err(|e| e.to_string())
}

pub fn run_edit(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut running: Option<(Scenario, Daemon, SweepResponse)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, daemon, _)) = running.take() {
            daemon.stop()?;
        }
        let (started, took) = calib::timed(nproc(), || -> Result<_, String> {
            let scenario = inputs::sized_scenario("edit", args.seed, EDIT_SYMBOLS)?;
            let daemon = Daemon::start("edit", None, None)?;
            let warm = daemon
                .client()?
                .run_sweep(&inputs::lower(&scenario, &LEVELS, &[], &[]))
                .map_err(|e| format!("warming the daemon: {e}"))?;
            Ok((scenario, daemon, warm))
        });
        setup.push(took);
        running = Some(started?);
    }
    let (scenario, daemon, warm) = running.expect("set-up ran");

    let units = scenario.units().len();
    let edits_for = |client: usize, k: usize| -> Vec<SweepUnit> {
        let pick = inputs::mix(args.seed, ((client as u64) << 32) | k as u64) as usize;
        (0..EDITS)
            .map(|j| {
                let index = (pick + j * (units / EDITS).max(1)) % units;
                let step = 1 + ((k * EDIT_CLIENTS + client) * EDITS + j) as u64;
                inputs::edited_unit(&scenario, index, step)
            })
            .collect()
    };

    // the measured window: two closed-loop clients, in segments separated
    // by host-speed probes while the clients are idle
    let mut per_client: Vec<(Client, Acks, Vec<Served>)> = Vec::new();
    for _ in 0..EDIT_CLIENTS {
        per_client.push((daemon.client()?, Acks::default(), Vec::new()));
    }
    let started = Instant::now();
    let mut window = 0.0;
    let mut before = calib::probe(nproc());
    while started.elapsed().as_secs_f64() < args.seconds {
        let segment = Instant::now();
        let end = segment + Duration::from_secs_f64(SEGMENT_S);
        let firsts: Vec<usize> = per_client.iter().map(|c| c.2.len()).collect();
        let results: Vec<Result<(), String>> = thread::scope(|s| {
            let handles: Vec<_> = per_client
                .iter_mut()
                .enumerate()
                .map(|(c, (client, acks, served))| {
                    let (scenario, edits_for) = (&scenario, &edits_for);
                    s.spawn(move || -> Result<(), String> {
                        loop {
                            let edits = edits_for(c, served.len());
                            served.push(request(client, scenario, &edits, acks, None)?);
                            if Instant::now() >= end {
                                return Ok(());
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        let raw = segment.elapsed().as_secs_f64();
        let after = calib::probe(nproc());
        let speed = calib::to_reference(before, after);
        before = after;
        window += raw * speed;
        for ((_, _, served), first) in per_client.iter_mut().zip(firsts) {
            for s in &mut served[first..] {
                s.speed = speed;
            }
        }
        for r in results {
            r?;
        }
    }
    let rss = peak_rss_mb();

    // the solo reference is built after the window, so its memory stays
    // out of `peak_rss_mb`
    let solo = solo_pipeline()?;
    let base_spec = inputs::lower(&scenario, &LEVELS, &[], &[]);
    let (base, base_sweep) = reference(&solo, &scenario, &base_spec)?;
    let ratios = Quality::of(&base_sweep, "default").ratios();
    if warm.digest != base.digest || !warm.verify() {
        out.problem("warm-up response differs from the solo reference");
    }
    let mut ledger = Ledger::open();
    for (key, value) in [
        ("sweep", base.digest.to_string()),
        ("sched", base.sched.to_string()),
        ("ratios", format!("{:?} {:?}", ratios.0, ratios.1)),
    ] {
        ledger.verify(&mut out, "served_edit", args.seed, key, &value);
    }

    let all: Vec<&Served> = per_client.iter().flat_map(|c| &c.2).collect();
    let latencies: Vec<f64> = all.iter().map(|s| s.latency_ms * s.speed).collect();
    let raw_latencies: Vec<f64> = all.iter().map(|s| s.latency_ms).collect();
    out.attempted += all.len() as u64;
    let good_cells = check_edits(&mut out, &solo, &scenario, &base_sweep, &all)?;
    out.info("nproc", nproc());
    out.info("clients", EDIT_CLIENTS);
    out.info("loop", "closed");
    out.info("samples", latencies.len());
    out.info("cells_per_request", base_spec.cell_count());
    out.info("symbols", scenario.total_symbols());
    out.info("raw_request_p50_ms", median(&raw_latencies));

    if args.trace {
        let untraced_op = median(&latencies) * 1e6;
        let clients = per_client.into_iter().map(|(c, a, _)| (c, a)).collect();
        let scenarios = std::slice::from_ref(&scenario);
        traced(
            &mut out,
            &daemon,
            scenarios,
            0,
            clients,
            &edits_for,
            untraced_op,
            args,
        )?;
    } else {
        let cells_per_s = good_cells as f64 / window;
        out.end_to_end(&setup, cells_per_s, &latencies, rss, ratios);
    }
    daemon.stop()?;
    Ok(out)
}

pub fn run_churn(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut scenarios = Vec::new();
    let mut refs = Vec::new();
    let mut quality = Quality::default();
    for i in 0..CHURN_SCENARIOS {
        let name = format!("churn{i}");
        let scenario =
            inputs::sized_scenario(&name, inputs::mix(args.seed, 100 + i as u64), CHURN_SYMBOLS)?;
        // a fresh solo pipeline per scenario, dropped right away: only one
        // scenario's artifacts are ever resident for the references, so
        // the daemon sets `peak_rss_mb`
        let spec = inputs::lower(&scenario, &LEVELS, &[], &[]);
        let (reference, sweep) = reference(&solo_pipeline()?, &scenario, &spec)?;
        quality.add(&sweep, "default");
        refs.push(reference);
        scenarios.push(scenario);
    }
    let ratios = quality.ratios();
    let store_ws: u64 = refs.iter().map(|r| r.store_bytes).sum();
    let parse_ws: u64 = refs.iter().map(|r| r.parse_bytes).sum();
    let store_bound = (store_ws as f64 * CHURN_BOUND) as u64;
    let parse_bound = (parse_ws as f64 * CHURN_BOUND) as u64;
    let mut ledger = Ledger::open();
    for (i, r) in refs.iter().enumerate() {
        ledger.verify(
            &mut out,
            "served_churn",
            args.seed,
            &format!("sweep{i}"),
            &r.digest.to_string(),
        );
        ledger.verify(
            &mut out,
            "served_churn",
            args.seed,
            &format!("sched{i}"),
            &r.sched.to_string(),
        );
    }
    let value = format!("{:?} {:?}", ratios.0, ratios.1);
    ledger.verify(&mut out, "served_churn", args.seed, "ratios", &value);

    let mut setup = Vec::new();
    let mut running: Option<(Daemon, Client, Acks)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((daemon, _, _)) = running.take() {
            daemon.stop()?;
        }
        let (started, took) = calib::timed(nproc(), || -> Result<_, String> {
            for i in 0..CHURN_SCENARIOS {
                let name = format!("churn{i}");
                drop(inputs::sized_scenario(
                    &name,
                    inputs::mix(args.seed, 100 + i as u64),
                    CHURN_SYMBOLS,
                )?);
            }
            let daemon = Daemon::start("churn", Some(store_bound), Some(parse_bound))?;
            let mut client = daemon.client()?;
            let mut acks = Acks::default();
            for scenario in &scenarios {
                request(&mut client, scenario, &[], &mut acks, None)?;
            }
            Ok((daemon, client, acks))
        });
        setup.push(took);
        running = Some(started?);
    }
    let (daemon, mut client, mut acks) = running.expect("set-up ran");

    // the measured window, in segments separated by host-speed probes
    let stats_before = client.server_stats().map_err(|e| e.to_string())?;
    let (mut latencies, mut raw_latencies) = (Vec::new(), Vec::new());
    let mut good_cells = 0.0;
    let mut window = 0.0;
    let started = Instant::now();
    let mut n = 0usize;
    let mut before = calib::probe(nproc());
    while started.elapsed().as_secs_f64() < args.seconds {
        let segment = Instant::now();
        let mut done = Vec::new();
        while done.is_empty() || segment.elapsed().as_secs_f64() < SEGMENT_S {
            let i = n % CHURN_SCENARIOS;
            n += 1;
            out.attempted += 1;
            match request(&mut client, &scenarios[i], &[], &mut acks, None) {
                Ok(served) => {
                    if judge(&mut out, &served, refs[i].digest, refs[i].sched) {
                        good_cells += served.cells as f64;
                    } else {
                        out.failed += 1;
                    }
                    done.push(served.latency_ms);
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(e);
                }
            }
        }
        let raw = segment.elapsed().as_secs_f64();
        let after = calib::probe(nproc());
        let speed = calib::to_reference(before, after);
        before = after;
        window += raw * speed;
        latencies.extend(done.iter().map(|l| l * speed));
        raw_latencies.extend(done);
    }
    let rss = peak_rss_mb();
    let stats_after = client.server_stats().map_err(|e| e.to_string())?;
    if stats_after.evictions == stats_before.evictions {
        out.problem("the bounded store never evicted");
    }
    out.info("nproc", nproc());
    out.info("clients", 1);
    out.info("loop", "closed");
    out.info("samples", latencies.len());
    out.info(
        "symbols",
        scenarios.iter().map(Scenario::total_symbols).sum::<usize>(),
    );
    out.info("store_bound_bytes", store_bound);
    out.info("parse_bound_bytes", parse_bound);
    out.info(
        "evictions_in_window",
        stats_after.evictions - stats_before.evictions,
    );
    out.info("raw_request_p50_ms", median(&raw_latencies));

    if args.trace {
        let untraced_op = median(&latencies) * 1e6;
        let clients = vec![(client, acks)];
        traced(
            &mut out,
            &daemon,
            &scenarios,
            n,
            clients,
            &|_, _| Vec::new(),
            untraced_op,
            args,
        )?;
    } else {
        out.end_to_end(&setup, good_cells / window, &latencies, rss, ratios);
    }
    daemon.stop()?;
    Ok(out)
}

/// The traced pass of a served workload: every client issues
/// [`TRACED_REQUESTS`] traced requests, rotating over `scenarios` from
/// position `first` on, then the layer counters are read from the span
/// tree and from the server's stats before and after.
#[allow(clippy::too_many_arguments)]
fn traced(
    out: &mut Outcome,
    daemon: &Daemon,
    scenarios: &[Scenario],
    first: usize,
    clients: Vec<(Client, Acks)>,
    edits_for: &(dyn Fn(usize, usize) -> Vec<SweepUnit> + Sync),
    untraced_op: f64,
    args: &Args,
) -> Result<(), String> {
    let mut layers = Layers::default();
    let t = Instant::now();
    for scenario in scenarios {
        drop(Scenario::generate(scenario.config()).map_err(|e| e.to_string())?);
    }
    layers.set("scenario.generate.ns", ns(t.elapsed()));

    let mut stats_client = daemon.client()?;
    let before = stats_client.server_stats().map_err(|e| e.to_string())?;
    let tracer = Mutex::new(Tracer::new(Instant::now()));
    let adopted = Mutex::new(Vec::new());
    let client_count = clients.len();
    let probe_before = calib::probe(nproc());
    let started = Instant::now();
    let results: Vec<Result<Vec<Served>, String>> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, (mut client, mut acks))| {
                let (tracer, adopted) = (&tracer, &adopted);
                s.spawn(move || -> Result<Vec<Served>, String> {
                    let mut served = Vec::new();
                    for k in 0..TRACED_REQUESTS {
                        // edit steps beyond any the untraced window used
                        let edits = edits_for(c, 1_000_000 + k);
                        let scn = &scenarios[(first + k) % scenarios.len()];
                        let id = ((c as u64) << 32) | (k as u64 + 1);
                        let trace = Traced {
                            tracer,
                            tid: c as u32,
                            id,
                            adopted,
                        };
                        served.push(request(&mut client, scn, &edits, &mut acks, Some(trace))?);
                    }
                    Ok(served)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall = ns(started.elapsed());
    let speed = calib::to_reference(probe_before, calib::probe(nproc()));
    let after = stats_client.server_stats().map_err(|e| e.to_string())?;
    let tracer = tracer.into_inner().expect("tracer lock");
    let adopted = adopted.into_inner().expect("adopted lock");
    let mut served = Vec::new();
    for r in results {
        served.extend(r?);
    }
    for s in &served {
        if !s.verified {
            out.failed += 1;
            out.problem("a traced response failed verify()");
        }
    }

    layers.read_spans(&tracer);
    let mut waits = Vec::new();
    for a in &adopted {
        layers.read_adopted(a);
        waits.extend_from_slice(&a.cell_waits);
    }
    let (p50, p90) = wait_quantiles(&waits);
    layers.set("server.queue_wait_p50.ns", p50);
    layers.set("server.queue_wait_p90.ns", p90);
    layers.set("service.queue_wait_p50.ns", p50);
    layers.set("server.request.ns", tracer.total_dur("server.sweep"));
    let wire: f64 = tracer
        .layers()
        .get("client.run_sweep")
        .map_or(0.0, |row| row.0);
    layers.set("server.wire.ns", wire);
    let specs = served
        .iter()
        .filter_map(|s| s.documents.as_ref())
        .map(|d| &d.0);
    layers.set(
        "dataflow.lower.units",
        specs.clone().map(|spec| spec.units().len() as f64).sum(),
    );
    layers.set(
        "dataflow.canonical_bytes",
        specs
            .flat_map(|spec| spec.units())
            .map(|u| u.canonical().len() as f64)
            .sum(),
    );

    let d = |f: fn(&ServerStats) -> u64| (f(&after) - f(&before)) as f64;
    layers.set("server.wire_rx_bytes", d(|s| s.bytes_rx));
    layers.set("server.wire_tx_bytes", d(|s| s.bytes_tx));
    layers.set("client.units_offered", d(|s| s.units_offered));
    layers.set("client.units_uploaded", d(|s| s.units_uploaded));
    let batches = d(|s| s.batches);
    layers.set("server.batches", batches);
    layers.set(
        "server.cells_per_batch",
        d(|s| s.batched_cells) / batches.max(1.0),
    );
    layers.set("server.queue_peak", after.queue_peak as f64);
    layers.set("store.hits", d(|s| s.jobs_cached));
    layers.set("store.inserts", d(|s| s.jobs_run));
    layers.set("store.evictions", d(|s| s.evictions));
    layers.set("store.resident_bytes", after.store_bytes as f64);
    layers.set("store.parse.hits", d(|s| s.parse_hits));
    layers.set("store.parse.misses", d(|s| s.parse_misses));
    layers.set("store.parse.evictions", d(|s| s.parse_evictions));
    let busy = layers.0.get("pool.busy.ns").copied().unwrap_or(0.0);
    layers.set(
        "pool.utilization",
        busy / (d(|s| s.wall_ns) * nproc() as f64).max(1.0),
    );
    let have_roundtrips = served.iter().filter(|s| !s.offer.is_empty()).count();
    layers.set("client.have_roundtrips", have_roundtrips as f64);

    codec_costs(&mut layers, daemon, &served)?;
    let tag = format!("{}-{}", args.workload, args.seed);
    let traced: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let traced_op = median(&traced) * 1e6 * speed;
    layers.finish(
        out,
        &tracer,
        &tag,
        wall,
        client_count,
        nproc(),
        untraced_op,
        traced_op,
    );
    Ok(())
}

/// Codec and negotiation cost of the traced requests, timed outside the
/// traced window with the public `proto` functions on the same
/// documents, and `have` roundtrips replayed on a raw connection.
fn codec_costs(layers: &mut Layers, daemon: &Daemon, served: &[Served]) -> Result<(), String> {
    for s in served {
        let Some((spec, response)) = &s.documents else {
            continue;
        };
        let offered: HashSet<u128> = s.offer.iter().map(|d| d.0).collect();
        let request = Request::Sweep(WireSweep::from_spec(spec, |d| offered.contains(&d.0)));
        let t = Instant::now();
        let text = encode_request(&request).map_err(|e| e.to_string())?;
        layers.add("proto.encode_request.ns", ns(t.elapsed()));
        layers.add("proto.request_bytes", text.len() as f64);
        let t = Instant::now();
        let decoded = decode_request(&text).map_err(|e| e.to_string())?;
        layers.add("proto.decode_request.ns", ns(t.elapsed()));
        std::hint::black_box(decoded);
        let mut response = response.clone();
        response.spans.clear();
        let response = Response::Sweep(response);
        let t = Instant::now();
        let text = encode_response(&response);
        layers.add("proto.encode_response.ns", ns(t.elapsed()));
        layers.add("proto.response_bytes", text.len() as f64);
        let t = Instant::now();
        let decoded = decode_response(&text).map_err(|e| e.to_string())?;
        layers.add("proto.decode_response.ns", ns(t.elapsed()));
        std::hint::black_box(decoded);
    }
    let stream = UnixStream::connect(&daemon.socket).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    for s in served.iter().filter(|s| !s.offer.is_empty()) {
        let text = encode_request(&Request::Have(s.offer.clone())).map_err(|e| e.to_string())?;
        let t = Instant::now();
        reader
            .get_mut()
            .write_all(text.as_bytes())
            .map_err(|e| e.to_string())?;
        let frame = read_frame(&mut reader)
            .map_err(|e| e.to_string())?
            .ok_or("the daemon closed the connection")?;
        let doc = String::from_utf8(frame).map_err(|e| e.to_string())?;
        let reply = decode_response(&doc).map_err(|e| e.to_string())?;
        layers.add("client.negotiate.ns", ns(t.elapsed()));
        if !matches!(reply, Response::Need(_)) {
            return Err("a have offer was not answered with need".into());
        }
    }
    Ok(())
}
