//! The `serve_mixed` workload: the real `crserve` binary on loopback
//! TCP with `--state`, driven by one generator process over a closed
//! loop of client connections (one per CPU), then shut down gracefully
//! and restarted on the same state.

use crate::batch::{in_span, process_peak_rss_mb};
use crate::check;
use crate::gen::{self, Intent, Stream};
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::{self, Trace};
use crate::Outcome;
use clockroute_cli::{report, scenario};
use clockroute_elmore::GateLibrary;
use clockroute_grid::GridGraph;
use clockroute_plan::{Planner, SharedTelemetry};
use clockroute_service::persist::{self, SnapshotLog};
use clockroute_service::{
    base_key, protocol, scenario_key, Lookup, Service, ServiceConfig, ShardedCache, Solved,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up samples (spawn → first `pong` → [`WARM_UP`] answered);
/// `setup_s` is their median.
const SETUPS: usize = 9;
/// Restarts on the final state; `service.recovery_s` is their median.
const RECOVERIES: usize = 5;
/// Distinct scenarios whose answers make up the quality metrics.
const QUALITY_SET: usize = 40;
/// Solved once by every freshly started server before timing, so lazy
/// initialisation is paid in set-up. Its 20-grid can never equal a
/// stream scenario (30-grid), so it adds exactly one miss.
const WARM_UP: &str = "die 5mm 5mm\ngrid 20 20\ntech paper\n\
                       net reg name=w src=1,1 dst=18,18 period=400\n";
/// Consecutive parts of the stream whose tails `scenario_tail_ms`
/// takes the median of: a burst of host stalls inflates the tail of one
/// part, not the median of three.
const TAIL_PARTS: usize = 3;
/// Scenarios re-requested after the restart (the first ones sent, in
/// stream order); each must answer as a hit with its earlier reply.
const RECHECKED: usize = 64;
/// Large enough that nothing is evicted in a run, so every repeat of a
/// scenario is a hit and misses equal distinct scenarios.
const CACHE_CAP: &str = "1000000";

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running `crserve` child.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `crserve` on an ephemeral loopback port with `state` and
    /// returns once it has answered a `ping` — and, with `warm_up`, the
    /// [`WARM_UP`] request — with the time that took.
    fn start(crserve: &Path, state: &Path, warm_up: bool) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(crserve)
            .args([
                "--tcp",
                "127.0.0.1:0",
                "--quiet",
                "--jobs",
                "1",
                "--cache-cap",
                CACHE_CAP,
            ])
            .arg("--state")
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", crserve.display()))?;
        let stderr = child.stderr.take().expect("stderr piped above");
        let mut lines = BufReader::new(stderr);
        let mut first = String::new();
        let addr = match lines.read_line(&mut first) {
            Ok(n) if n > 0 => first
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_owned),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("crserve did not report its address: {first:?}"));
        };
        // Keep the pipe drained so the child can never block on it.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while lines.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        let mut server = Server {
            child,
            addr,
            drain: Some(drain),
        };
        let answered = Client::connect(&server.addr).and_then(|mut c| {
            let pong = c.call("{\"id\":\"p\",\"op\":\"ping\"}")?;
            if !pong.contains("\"pong\":true") {
                return Err(format!("crserve did not answer ping: {pong}"));
            }
            if warm_up {
                let reply = c.call(&gen::route_line("w", WARM_UP))?;
                if !reply.contains("\"status\":\"ok\"") {
                    return Err(format!("warm-up request failed: {reply}"));
                }
            }
            Ok(())
        });
        let took = start.elapsed().as_secs_f64();
        match answered {
            Ok(()) => Ok((server, took)),
            Err(e) => {
                server.kill();
                Err(e)
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful shutdown: a `shutdown` request, then wait for exit 0.
    fn stop(mut self) -> Result<(), String> {
        let bye = Client::connect(&self.addr)
            .and_then(|mut c| c.call("{\"id\":\"q\",\"op\":\"shutdown\"}"));
        if !bye.as_deref().is_ok_and(|l| l.contains("\"bye\":true")) {
            self.kill();
            return Err(format!("shutdown not acknowledged: {bye:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.join_drain();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("crserve exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("crserve did not exit after shutdown".to_owned());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_drain();
    }

    fn join_drain(&mut self) {
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.kill();
        }
    }
}

/// One client connection: a request line out, a response line back.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(n) if n > 0 => Ok(response.trim_end().to_owned()),
            Ok(_) => Err("connection closed".to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One answered request of the stream.
struct Record {
    index: usize,
    intent: Intent,
    scenario: usize,
    latency_ms: f64,
    response: Result<String, String>,
}

/// The `cache` label of a route response.
fn cache_label(response: &str) -> Option<&str> {
    let rest = response.split_once("\"cache\":\"")?.1;
    Some(&rest[..rest.find('"')?])
}

/// A response with its `id` and `cache` label blanked, for comparing
/// replies to the same scenario across requests.
fn normalized(response: &str) -> String {
    let body = response
        .split_once(",\"status\"")
        .map_or(response, |(_, b)| b);
    match cache_label(body) {
        Some(label) => body.replacen(&format!("\"cache\":\"{label}\""), "\"cache\":\"\"", 1),
        None => body.to_owned(),
    }
}

/// Drives the closed loop: `clients` connections pull the next request
/// of the shared seeded stream as soon as their previous one returns.
fn drive(addr: &str, seed: u64, seconds: u64) -> Result<(Vec<Record>, Vec<String>, f64), String> {
    let stream = Arc::new(Mutex::new((Stream::new(seed), 0usize)));
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut connections = Vec::new();
    for _ in 0..clients() {
        connections.push(Client::connect(addr)?);
    }
    let records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .map(|mut client| {
                let stream = stream.clone();
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let (index, request, line) = {
                            let mut guard = stream.lock().expect("stream lock");
                            if start.elapsed() >= deadline {
                                break;
                            }
                            let (s, next) = &mut *guard;
                            let request = s.next_request();
                            let index = *next;
                            *next += 1;
                            let line = gen::route_line(
                                &format!("r{index}"),
                                &s.scenarios[request.scenario],
                            );
                            (index, request, line)
                        };
                        let sent = Instant::now();
                        let response = client.call(&line);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let broken = response.is_err();
                        mine.push(Record {
                            index,
                            intent: request.intent,
                            scenario: request.scenario,
                            latency_ms,
                            response,
                        });
                        if broken {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut records = records;
    records.sort_by_key(|r| r.index);
    let scenarios = stream.lock().expect("stream lock").0.scenarios.clone();
    Ok((records, scenarios, wall))
}

/// The in-process answer for one scenario, as `crplan --quiet` renders
/// it.
struct Reference {
    routed: usize,
    failed: usize,
    degraded: usize,
    report: String,
    wire_mm: f64,
    latency_ps: f64,
    drc_failures: Vec<String>,
    drc_ns: u64,
    nets: usize,
}

fn reference(text: &str, lib: &GateLibrary) -> Reference {
    let s = scenario::parse(text).expect("generated scenarios parse");
    let graph = GridGraph::from_floorplan(&s.floorplan, s.grid.0, s.grid.1);
    let plan = Planner::new(graph.clone(), s.tech, lib.clone())
        .reserve_routes(s.reserve)
        .jobs(1)
        .plan(&s.nets);
    let start = Instant::now();
    let drc_failures = check::drc_plan(&plan, &s.nets, &graph, &s.tech, lib);
    let drc_ns = start.elapsed().as_nanos() as u64;
    Reference {
        routed: plan.routed().count(),
        failed: plan.failed().count(),
        degraded: plan.degraded().count(),
        report: report::plan_report(&plan),
        wire_mm: plan.total_wirelength().mm(),
        latency_ps: plan
            .routed()
            .filter_map(|r| r.latency)
            .map(|t| t.ps())
            .sum(),
        drc_failures,
        drc_ns,
        nets: s.nets.len(),
    }
}

/// References for every scenario, computed on one thread per CPU.
fn references(scenarios: &[String], lib: &GateLibrary) -> Vec<Reference> {
    let workers = clients();
    let chunk = scenarios.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = scenarios
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().map(|t| reference(t, lib)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Counters and gauges from a `stats` response.
fn parse_stats(line: &str) -> BTreeMap<String, u64> {
    let body = line
        .split_once("\"stats\":{")
        .map_or("", |(_, b)| b.trim_end_matches('}'));
    body.split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim_matches('"').to_owned(), v.parse().ok()?))
        })
        .collect()
}

fn state_dir(tag: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("serve-{tag}-{}", std::process::id()))
}

/// Everything the TCP part of a run measured.
struct Served {
    setups: Vec<f64>,
    recoveries: Vec<f64>,
    records: Vec<Record>,
    scenarios: Vec<String>,
    wall: f64,
    stats: BTreeMap<String, u64>,
    rss_mb: f64,
    replay_ms: f64,
    recovered_mismatches: Vec<String>,
    state: PathBuf,
}

fn serve_over_tcp(crserve: &Path, seed: u64, seconds: u64) -> Result<Served, String> {
    let mut setups = Vec::new();
    for i in 0..SETUPS - 1 {
        let dir = state_dir(&format!("setup{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (server, took) = Server::start(crserve, &dir, true)?;
        setups.push(took);
        server.stop()?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    let state = state_dir("main");
    let _ = std::fs::remove_dir_all(&state);
    let (server, took) = Server::start(crserve, &state, true)?;
    setups.push(took);

    let (records, scenarios, wall) = drive(&server.addr, seed, seconds)?;
    let stats =
        parse_stats(&Client::connect(&server.addr)?.call("{\"id\":\"s\",\"op\":\"stats\"}")?);
    let rss_mb = process_peak_rss_mb(&server.pid());
    server.stop()?;

    // The last reply to each scenario before the restart.
    let mut before: BTreeMap<usize, &str> = BTreeMap::new();
    for r in &records {
        if let Ok(resp) = &r.response {
            before.insert(r.scenario, resp);
        }
    }
    let mut recoveries = Vec::new();
    let mut recovered_mismatches = Vec::new();
    for round in 0..RECOVERIES {
        let (server, took) = Server::start(crserve, &state, false)?;
        recoveries.push(took);
        if round + 1 == RECOVERIES {
            let mut client = Client::connect(&server.addr)?;
            for (&scenario, reply) in before.iter().take(RECHECKED) {
                let again = client.call(&gen::route_line(
                    &format!("v{scenario}"),
                    &scenarios[scenario],
                ))?;
                if cache_label(&again) != Some("hit") || normalized(&again) != normalized(reply) {
                    recovered_mismatches
                        .push(format!("scenario {scenario} after restart: {again}"));
                }
            }
        }
        server.stop()?;
    }
    let start = Instant::now();
    let (entries, _) =
        persist::load(&state).map_err(|e| format!("load {}: {e}", state.display()))?;
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    black_box(entries);
    Ok(Served {
        setups,
        recoveries,
        records,
        scenarios,
        wall,
        stats,
        rss_mb,
        replay_ms,
        recovered_mismatches,
        state,
    })
}

/// Checks every reply against its in-process reference; returns the
/// failures (one per request) and the references.
fn check_replies(served: &Served, lib: &GateLibrary) -> (Vec<String>, Vec<Reference>) {
    let refs = references(&served.scenarios, lib);
    let mut failures = Vec::new();
    for r in &served.records {
        let reference = &refs[r.scenario];
        match &r.response {
            Err(e) => failures.push(format!("request {}: {e}", r.index)),
            Ok(resp) => {
                let label = cache_label(resp).unwrap_or("?");
                let expected = protocol::route_ok(
                    Some(&format!("r{}", r.index)),
                    label,
                    reference.routed,
                    reference.failed,
                    reference.degraded,
                    &reference.report,
                );
                if *resp != expected {
                    failures.push(format!(
                        "request {} ({:?}) differs from reference: {resp}",
                        r.index, r.intent
                    ));
                }
            }
        }
    }
    for (i, reference) in refs.iter().enumerate() {
        if !reference.drc_failures.is_empty() {
            failures.push(format!(
                "scenario {i}: {}",
                reference.drc_failures.join("; ")
            ));
        }
    }
    // The warm-up request is the one miss outside the stream.
    let misses = served.stats.get("service.misses").copied().unwrap_or(0);
    if misses != served.scenarios.len() as u64 + 1 {
        failures.push(format!(
            "service.misses {misses} != {} distinct scenarios + 1 warm-up",
            served.scenarios.len()
        ));
    }
    failures.extend(served.recovered_mismatches.iter().cloned());
    (failures, refs)
}

fn latencies(records: &[Record], keep: impl Fn(&Record) -> bool) -> Vec<f64> {
    sorted(
        &records
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.latency_ms)
            .collect::<Vec<_>>(),
    )
}

/// The median over [`TAIL_PARTS`] consecutive parts of the stream of
/// each part's tail, with that part's tail percentile.
fn median_tail(records: &[Record]) -> (f64, f64) {
    let part = records.len().div_ceil(TAIL_PARTS).max(1);
    let mut tails: Vec<(f64, f64)> = records
        .chunks(part)
        .map(|c| tail(&latencies(c, |_| true)))
        .collect();
    tails.sort_by(|a, b| a.1.total_cmp(&b.1));
    tails.get(tails.len() / 2).copied().unwrap_or((50.0, 0.0))
}

fn is_label(r: &Record, label: &str) -> bool {
    r.response.as_deref().ok().and_then(cache_label) == Some(label)
}

/// Metrics both runs report: client-observed latencies and counters.
fn served_metrics(out: &mut Outcome, served: &Served, refs: &[Reference]) {
    let all = latencies(&served.records, |_| true);
    let (tail_p, tail_ms) = median_tail(&served.records);
    let cold = latencies(&served.records, |r| is_label(r, "cold"));
    let hits = latencies(&served.records, |r| is_label(r, "hit"));
    let nets: usize = served
        .records
        .iter()
        .filter(|r| r.response.is_ok())
        .map(|r| refs[r.scenario].routed)
        .sum();
    let quality = &refs[..QUALITY_SET.min(refs.len())];
    out.set("setup_s", median(&served.setups));
    out.setup_samples = served.setups.clone();
    out.set("nets_per_s", nets as f64 / served.wall);
    out.set("req_per_s", served.records.len() as f64 / served.wall);
    out.set("scenario_p50_ms", percentile(&all, 50.0));
    out.set("scenario_tail_ms", tail_ms);
    out.tail_percentile = tail_p;
    out.tail_parts = TAIL_PARTS;
    out.set("cold_p50_ms", percentile(&cold, 50.0));
    out.set("peak_rss_mb", served.rss_mb);
    out.set("wire_mm", quality.iter().map(|r| r.wire_mm).sum());
    out.set("net_latency_ps", quality.iter().map(|r| r.latency_ps).sum());
    out.set("req_p50_ms", percentile(&all, 50.0));
    out.set("req_p99_ms", percentile(&all, 99.0));
    out.set("service.hit_p50_ms", percentile(&hits, 50.0));
    out.set("service.recovery_s", median(&served.recoveries));
    let degraded: usize = quality.iter().map(|r| r.degraded).sum();
    out.set("quality.degraded_nets", degraded as f64);
    out.deterministic = vec![
        ("wire_mm".to_owned(), out.get("wire_mm").to_string()),
        (
            "net_latency_ps".to_owned(),
            out.get("net_latency_ps").to_string(),
        ),
        ("degraded_nets".to_owned(), degraded.to_string()),
    ];
    for name in [
        "hits",
        "misses",
        "coalesced",
        "warm_reuse",
        "evictions",
        "rejects",
    ] {
        let v = served
            .stats
            .get(&format!("service.{name}"))
            .copied()
            .unwrap_or(0);
        out.set(&format!("service.{name}"), v as f64);
    }
    let backlog = served
        .stats
        .get("service.pool.backlog")
        .copied()
        .unwrap_or(0);
    out.set("service.pool.backlog", backlog as f64);
}

/// The TCP run with its answer checks and the metrics both runs
/// report; `Err` says why the run could not complete.
fn run_checked(
    crserve: &Path,
    seed: u64,
    seconds: u64,
    lib: &GateLibrary,
) -> Result<(Outcome, Served, Vec<Reference>), String> {
    let served = serve_over_tcp(crserve, seed, seconds).inspect_err(|_| {
        let _ = std::fs::remove_dir_all(state_dir("main"));
    })?;
    let (failures, refs) = check_replies(&served, lib);
    let mut out = Outcome::new(served.records.len() as u64, failures.len() as u64);
    out.notes = failures;
    served_metrics(&mut out, &served, &refs);
    Ok((out, served, refs))
}

/// The untraced run.
pub fn run(crserve: &Path, seed: u64, seconds: u64) -> Outcome {
    match run_checked(crserve, seed, seconds, &GateLibrary::paper_library()) {
        Ok((out, served, _)) => {
            let _ = std::fs::remove_dir_all(&served.state);
            out
        }
        Err(e) => Outcome::broken(e),
    }
}

/// The traced run: the same TCP run for the client-observed side, then
/// the recorded stream replayed in process ([`replay_in_process`]).
pub fn run_traced(crserve: &Path, seed: u64, seconds: u64, trace_path: &Path) -> Outcome {
    let lib = GateLibrary::paper_library();
    let (mut out, served, refs) = match run_checked(crserve, seed, seconds, &lib) {
        Ok(checked) => checked,
        Err(e) => return Outcome::broken(e),
    };
    let _ = std::fs::remove_dir_all(&served.state);
    out.set("service.persist.replay_ms", served.replay_ms);
    let drc_ns: u64 = refs.iter().map(|r| r.drc_ns).sum();
    let drc_nets: usize = refs.iter().map(|r| r.nets).sum();
    out.set(
        "core.drc.check_us",
        drc_ns as f64 / 1e3 / drc_nets.max(1) as f64,
    );

    let lines: Vec<String> = served
        .records
        .iter()
        .map(|r| gen::route_line(&format!("r{}", r.index), &served.scenarios[r.scenario]))
        .collect();
    let replayed = match replay_in_process(&lines, &lib) {
        Ok(r) => r,
        Err(e) => return Outcome::broken(e),
    };
    out.failed += replayed.mismatches.len() as u64;
    out.notes.extend(replayed.mismatches);
    let t = replayed.trace;
    if let Err(e) = t.write_jsonl(trace_path) {
        out.notes
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let spans = t.spans();
    crate::layers::search_metrics(&mut out, &t, &spans);
    let mean_us = |name: &str| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    out.set("cli.scenario.parse_us", mean_us("cli.scenario"));
    out.set("service.keys.fingerprint_us", mean_us("service.keys"));
    out.set("service.shard.lookup_us", mean_us("service.shard.lookup"));
    out.set("grid.build_ms", mean_us("grid") / 1e3);
    out.set("cli.report.render_us", mean_us("cli.report"));
    out.set(
        "service.persist.encode_us",
        mean_us("service.persist.encode"),
    );
    out.set(
        "service.persist.append_fsync_ms",
        mean_us("service.persist.append") / 1e3,
    );
    let reused = t.counter("plan.warm.reused") as f64;
    let rerouted = t.counter("plan.warm.rerouted") as f64;
    out.set(
        "plan.warm.reuse_ratio",
        if reused + rerouted > 0.0 {
            reused / (reused + rerouted)
        } else {
            0.0
        },
    );
    // Transport: client-observed hit latency minus the same hits
    // handled in process.
    let inproc_hits: Vec<f64> = served
        .records
        .iter()
        .zip(&replayed.handled_ms)
        .filter(|(r, _)| is_label(r, "hit"))
        .map(|(_, &ms)| ms)
        .collect();
    let client_hit_ms = out.get("service.hit_p50_ms");
    out.set(
        "service.transport_us",
        (client_hit_ms - median(&inproc_hits)) * 1e3,
    );

    // The table: transport (client-observed time minus `handle_line`
    // time) plus the traced in-process replay, whose time no piece span
    // covers is the unaccounted share.
    let client_total_ns = served
        .records
        .iter()
        .map(|r| r.latency_ms * 1e6)
        .sum::<f64>();
    let handled_total_ns = replayed.handled_ms.iter().sum::<f64>() * 1e6;
    let transport_ns = client_total_ns - handled_total_ns;
    let mut rows = trace::self_times(&spans);
    rows.insert("service.transport".to_owned(), transport_ns as i64);
    let roots_ns = trace::root_ns(&spans) as f64 + transport_ns;
    let total_ns = replayed.traced_ns + transport_ns;
    out.set("trace.unaccounted_share", 1.0 - roots_ns / total_ns);
    out.set(
        "trace.overhead_share",
        replayed.traced_ns / replayed.bare_ns - 1.0,
    );
    out.table = Some(crate::layers::Table {
        rows,
        total_ns,
        roots_ns,
    });
    out
}

/// What the in-process replay measured.
struct Replayed {
    /// `Service::handle_line` time per request.
    handled_ms: Vec<f64>,
    /// Summed wall time of the piece-wise replay, traced and bare.
    traced_ns: f64,
    bare_ns: f64,
    /// Requests whose piece-wise response differs from `handle_line`'s.
    mismatches: Vec<String>,
    trace: Arc<Trace>,
}

/// Replays the recorded stream in process. `Service::handle_line`
/// answers it once, untraced: that splits the client-observed time into
/// transport and in-process work. Then the public pieces a request is
/// made of ([`replay_one`]) answer it twice, each pass with its own
/// cache and snapshot log: once with a span around every piece and the
/// trace attached to the planner, once bare, alternating which goes
/// first, so the difference is the tracing overhead. Every piece-wise
/// response must equal `handle_line`'s, so the replay cannot drift from
/// the service unnoticed.
fn replay_in_process(lines: &[String], lib: &GateLibrary) -> Result<Replayed, String> {
    // One planner job per request, as the server runs: concurrency
    // comes from the client connections.
    let dir = state_dir("inproc");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        jobs: 1,
        cache_cap: 1_000_000,
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let service = Service::new(config.clone());
    let mut handled = Vec::with_capacity(lines.len());
    let mut handled_ms = Vec::with_capacity(lines.len());
    for line in lines {
        let start = Instant::now();
        let response = service.handle_line(line);
        handled_ms.push(start.elapsed().as_secs_f64() * 1e3);
        handled.push(response);
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    let t = Arc::new(Trace::new());
    let mut traced = Pieces::open("traced")?;
    let mut bare = Pieces::open("bare")?;
    let (mut traced_ns, mut bare_ns) = (0.0, 0.0);
    let mut mismatches = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let mut time_bare = || {
            let start = Instant::now();
            black_box(replay_one(None, &mut bare, line, &config, lib));
            start.elapsed().as_nanos() as f64
        };
        let traced_first = i % 2 == 0;
        if !traced_first {
            bare_ns += time_bare();
        }
        t.set_request(i as u64);
        let start = Instant::now();
        let response = replay_one(Some(&t), &mut traced, line, &config, lib);
        traced_ns += start.elapsed().as_nanos() as f64;
        if traced_first {
            bare_ns += time_bare();
        }
        if response != handled[i] {
            mismatches.push(format!(
                "request {i}: piece-wise replay answered {response}, handle_line {}",
                handled[i]
            ));
        }
    }
    Ok(Replayed {
        handled_ms,
        traced_ns,
        bare_ns,
        mismatches,
        trace: t,
    })
}

/// The state of one piece-wise replay: its cache and its snapshot log
/// in a directory of its own, removed on drop.
struct Pieces {
    cache: ShardedCache,
    log: SnapshotLog,
    dir: PathBuf,
}

impl Pieces {
    fn open(tag: &str) -> Result<Pieces, String> {
        let dir = state_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let log = SnapshotLog::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        Ok(Pieces {
            cache: ShardedCache::new(clients(), 1_000_000),
            log,
            dir,
        })
    }
}

impl Drop for Pieces {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One request through the public pieces `Service::handle_line` is
/// made of, with `config`'s solve settings; with `trace`, each piece
/// runs in its own span and the planner reports to the trace. Returns
/// the response line. Admission is left out: nothing is rejected in a
/// sequential replay.
fn replay_one(
    trace: Option<&Arc<Trace>>,
    pieces: &mut Pieces,
    line: &str,
    config: &ServiceConfig,
    lib: &GateLibrary,
) -> String {
    let Pieces { cache, log, .. } = pieces;
    let request = in_span(trace, "service.protocol", || protocol::parse_request(line))
        .expect("generated requests parse");
    let protocol::Op::Route { scenario: text } = request.op else {
        return String::new();
    };
    let parsed = in_span(trace, "cli.scenario", || scenario::parse(&text))
        .expect("generated scenarios parse");
    let (key, base) = in_span(trace, "service.keys", || {
        (scenario_key(&parsed), base_key(&parsed))
    });
    let lookup = in_span(trace, "service.shard.lookup", || {
        cache.lookup_or_claim(key, &parsed)
    });
    let (solved, label) = match lookup {
        Lookup::Hit(s) | Lookup::Coalesced(s) => (s, "hit"),
        Lookup::Lead(slot) => {
            let prior = in_span(trace, "service.shard.lookup", || {
                config
                    .warm
                    .then(|| cache.find_warm(base, &parsed, config.warm_max_dirty))
                    .flatten()
            });
            let graph = in_span(trace, "grid", || {
                GridGraph::from_floorplan(&parsed.floorplan, parsed.grid.0, parsed.grid.1)
            });
            let mut planner = Planner::new(graph, parsed.tech, lib.clone())
                .reserve_routes(parsed.reserve)
                .jobs(config.jobs);
            if let Some(t) = trace {
                planner = planner.telemetry(SharedTelemetry::new(t.clone()));
            }
            let label = if prior.is_some() { "warm" } else { "cold" };
            let traced = in_span(trace, "plan", || match prior {
                Some(w) => planner.plan_warm(&parsed.nets, &w.traced, &w.dirty),
                None => planner.plan_traced(&parsed.nets),
            });
            let report = in_span(trace, "cli.report", || report::plan_report(traced.plan()));
            let plan = traced.plan();
            let solved = Solved {
                routed: plan.routed().count(),
                failed: plan.failed().count(),
                degraded: plan.degraded().count(),
                report,
                traced,
            };
            let payload = in_span(trace, "service.persist.encode", || {
                persist::encode_entry(key, base, &parsed, &solved)
            });
            in_span(trace, "service.shard.insert", || {
                slot.insert(base, parsed, solved.clone())
            });
            in_span(trace, "service.persist.append", || log.append(&payload))
                .expect("snapshot append");
            drop(slot);
            (solved, label)
        }
    };
    in_span(trace, "service.protocol", || {
        protocol::route_ok(
            request.id.as_deref(),
            label,
            solved.routed,
            solved.failed,
            solved.degraded,
            &solved.report,
        )
    })
}
