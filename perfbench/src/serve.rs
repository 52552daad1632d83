//! The `serve` workload: an in-process `tsc3d_serve::Server` under open-loop load.
//!
//! One evaluation worker and a fresh state directory. One thread sends the seeded
//! schedule of [`crate::schedule::serve_schedule`]: fresh n100 flow submissions
//! (keeping the worker about half busy), repeats of finished bodies (cache hits), status
//! polls, `/v1/stats` and `/metrics` scrapes. A second thread holds one `/v1/events` stream
//! and records job start/finish events. This is the only workload that crosses HTTP
//! parsing, the queue, the cache and state-file persistence, with writes running
//! beside reads: a serve-side change shows up here and nowhere else.
//!
//! Plain requests go through `tsc3d_loadgen::client::issue`, which reports the status
//! only. Bodies the checks need (stats snapshots, results) and the event stream are
//! read through [`open_get`], outside the timed requests.

use crate::flow::{transient_steps, SETUP_REPEATS};
use crate::schedule::{flow_body, serve_schedule, Kind, Request};
use crate::trace::Tracer;
use crate::{mean, ratio, secs, stats, Args, Outcome};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsc3d_campaign::json::Json;
use tsc3d_campaign::{execute_job, JobOutcome, JobRecord};
use tsc3d_loadgen::client::{issue, Outcome as Status, ReadMode};
use tsc3d_serve::{parse_payload, Payload, Server, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);
/// How long finished work may take to drain after the window before it counts failed.
const DRAIN: Duration = Duration::from_secs(60);

fn start_server(dir: &Path) -> Result<Server, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    Server::start(config).map_err(|e| e.to_string())
}

/// Writes a GET request and returns the open connection.
fn open_get(addr: SocketAddr, path: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )?;
    Ok(stream)
}

/// An untimed GET whose body the checks need: `(status, body)`.
fn get_body(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut response = String::new();
    open_get(addr, path)
        .and_then(|mut s| s.read_to_string(&mut response))
        .map_err(|e| format!("GET {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {path}: no response head"))?;
    let status = head
        .get(9..12)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("GET {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// One job event from the stream, with the time the benchmark received it.
#[derive(Debug, Clone)]
struct Event {
    job: u64,
    state: String,
    ts_ns: u64,
    received: Instant,
}

/// The `/v1/events` reader thread.
struct Events {
    log: Arc<Mutex<Vec<Event>>>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Events {
    /// Opens the stream and returns once the response head arrived.
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let mut stream = open_get(addr, "/v1/events").map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(|e| e.to_string())?;
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (head_tx, head_rx) = std::sync::mpsc::channel();
        let thread = {
            let log = Arc::clone(&log);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut pending: Vec<u8> = Vec::new();
                let mut chunk = [0u8; 16 * 1024];
                let mut head_seen = false;
                while !stop.load(Ordering::SeqCst) {
                    match stream.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => pending.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            continue
                        }
                        Err(_) => break,
                    }
                    let received = Instant::now();
                    while let Some(end) = pending.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = pending.drain(..=end).collect();
                        let line = String::from_utf8_lossy(&line);
                        if !head_seen && line.trim().is_empty() {
                            head_seen = true;
                            let _ = head_tx.send(());
                        }
                        if let Some(event) = parse_event(&line, received) {
                            log.lock().expect("event log").push(event);
                        }
                    }
                }
            })
        };
        head_rx
            .recv_timeout(TIMEOUT)
            .map_err(|_| "no /v1/events response head".to_string())?;
        // The server subscribes the stream right after writing the head; give it a
        // moment so no event of the window is missed.
        std::thread::sleep(Duration::from_millis(100));
        Ok(Self { log, stop, thread })
    }

    fn snapshot(&self) -> Vec<Event> {
        self.log.lock().expect("event log").clone()
    }

    fn close(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

fn parse_event(line: &str, received: Instant) -> Option<Event> {
    let data = line.trim().strip_prefix("data: ")?;
    let value = Json::parse(data).ok()?;
    (value.get("kind")?.as_str()? == "job").then_some(())?;
    Some(Event {
        job: value.get("job")?.as_u64()?,
        state: value.get("state")?.as_str()?.to_string(),
        ts_ns: value.get("ts_ns")?.as_u64()?,
        received,
    })
}

/// Starts a server and warms it up with one job; returns the server and the time.
fn set_up_once(dir: &Path) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = start_server(dir)?;
    let addr = server.local_addr();
    let submitted = issue(
        addr,
        "POST",
        "/v1/jobs",
        &flow_body(0),
        ReadMode::FullBody,
        TIMEOUT,
    );
    if submitted != Status::Status(202) {
        return Err(format!("warm-up submission answered {submitted:?}"));
    }
    loop {
        match issue(
            addr,
            "GET",
            "/v1/jobs/1/result",
            "",
            ReadMode::FullBody,
            TIMEOUT,
        ) {
            Status::Status(200) => break,
            Status::Status(409) if secs(started) < DRAIN.as_secs_f64() => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => return Err(format!("warm-up result answered {other:?}")),
        }
    }
    Ok((server, secs(started)))
}

fn set_up(out: &mut Outcome, args: &Args, pass: &str) -> Option<(Server, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let dir = args.scratch.join(format!("state-{pass}-{i}"));
        match set_up_once(&dir) {
            Ok((server, time)) => {
                times.push(time);
                if let Some(old) = kept.replace(server) {
                    old.shutdown();
                }
            }
            Err(e) => out.check(Some(format!("serve set-up: {e}"))),
        }
    }
    kept.map(|server| (server, stats::median(&times)))
}

/// One timed request of the window.
struct Sample {
    latency_ms: f64,
    lag_ms: f64,
}

/// What one pass of the schedule measured.
#[derive(Default)]
struct Pass {
    samples: Vec<Sample>,
    /// Result latency of each fresh submission that finished, ms.
    results_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    refused: u64,
    errors: u64,
    hits: u64,
    cache_hit_ratio: f64,
    /// Peak resident set once the fresh jobs finished, before the in-process checks.
    peak_rss_mb: f64,
}

impl Pass {
    /// Every request's latency, ms.
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }
}

fn counters(addr: SocketAddr) -> Result<(f64, f64), String> {
    let (status, body) = get_body(addr, "/v1/stats")?;
    let value = Json::parse(&body).map_err(|e| format!("/v1/stats: {e}"))?;
    let jobs = value.get("jobs").filter(|_| status == 200);
    let field = |name: &str| jobs.and_then(|j| j.get(name)).and_then(Json::as_f64);
    match (field("cache_hits"), field("submitted")) {
        (Some(hits), Some(submitted)) => Ok((hits, submitted)),
        _ => Err("/v1/stats has no job counters".into()),
    }
}

/// Sends the schedule open-loop, waits for the fresh jobs, and checks every output.
fn run_pass(out: &mut Outcome, server: Server, schedule: &[Request], tracer: &Tracer) -> Pass {
    let addr = server.local_addr();
    let mut pass = Pass::default();
    let before = counters(addr);
    let events = match Events::open(addr) {
        Ok(events) => events,
        Err(e) => {
            out.check(Some(format!("serve events: {e}")));
            server.shutdown();
            return pass;
        }
    };
    let mut next_id = 1u64; // the warm-up job
    let mut fresh: Vec<(u64, Option<u64>, Instant)> = Vec::new(); // (seed, id, intended)
    let mut hits: Vec<(u64, usize)> = Vec::new(); // (id, fresh index)
    let start = Instant::now();
    for request in schedule {
        let intended = start + Duration::from_nanos(request.offset_ns);
        if let Some(wait) = intended.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let target = |index: u64| fresh[index as usize].1.unwrap_or(1);
        let (method, path, body) = match request.kind {
            Kind::Fresh => ("POST", "/v1/jobs".to_string(), flow_body(request.arg)),
            Kind::Repeat => (
                "POST",
                "/v1/jobs".to_string(),
                flow_body(fresh[request.arg as usize].0),
            ),
            Kind::Poll => (
                "GET",
                format!("/v1/jobs/{}", target(request.arg)),
                String::new(),
            ),
            Kind::Stats => ("GET", "/v1/stats".to_string(), String::new()),
            Kind::Metrics => ("GET", "/metrics".to_string(), String::new()),
        };
        let span = tracer.open(request.kind.label());
        let status = issue(addr, method, &path, &body, ReadMode::FullBody, TIMEOUT);
        let latency_ms = intended.elapsed().as_secs_f64() * 1e3;
        let lag_ms = sent.duration_since(intended).as_secs_f64() * 1e3;
        tracer.close(span, &[("latency_ms", latency_ms), ("lag_ms", lag_ms)]);
        pass.samples.push(Sample { latency_ms, lag_ms });
        let code = match status {
            Status::Status(code) => code,
            Status::IoError => 0,
        };
        let new_id = |next_id: &mut u64| {
            *next_id += 1;
            *next_id
        };
        let problem = match (request.kind, code) {
            (Kind::Fresh, 202) => {
                fresh.push((request.arg, Some(new_id(&mut next_id)), intended));
                None
            }
            (Kind::Repeat, 200) => {
                hits.push((new_id(&mut next_id), request.arg as usize));
                None
            }
            // A repeat that found its job still running joins it: no new id, no hit.
            (Kind::Repeat, 202) | (Kind::Poll | Kind::Stats | Kind::Metrics, 200) => None,
            (kind, 429 | 503) => {
                pass.refused += 1;
                Some(format!("{} refused ({code})", kind.label()))
            }
            (kind, _) => {
                pass.errors += 1;
                Some(format!("{} {path} answered {status:?}", kind.label()))
            }
        };
        if request.kind == Kind::Fresh && problem.is_some() {
            fresh.push((request.arg, None, intended));
        }
        out.check(problem);
    }

    // Wait for every accepted fresh job's terminal event.
    let ids: Vec<u64> = fresh.iter().filter_map(|f| f.1).collect();
    let drain_start = Instant::now();
    let log = loop {
        let log = events.snapshot();
        let settled = ids.iter().all(|id| {
            log.iter()
                .any(|e| e.job == *id && (e.state == "finished" || e.state == "failed"))
        });
        if settled || drain_start.elapsed() > DRAIN {
            break log;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut by_job: HashMap<(u64, &str), &Event> = HashMap::new();
    for event in &log {
        by_job
            .entry((event.job, event.state.as_str()))
            .or_insert(event);
    }
    for &(seed, id, intended) in &fresh {
        let Some(id) = id else { continue };
        let finished = by_job.get(&(id, "finished"));
        out.check(
            finished
                .is_none()
                .then(|| format!("fresh job {id} (seed {seed}) did not finish")),
        );
        if let Some(done) = finished {
            pass.results_ms
                .push(done.received.duration_since(intended).as_secs_f64() * 1e3);
            let stages = (by_job.get(&(id, "queued")), by_job.get(&(id, "started")));
            out.check(match stages {
                (Some(queued), Some(began)) => {
                    pass.queue_wait_ms
                        .push(began.ts_ns.saturating_sub(queued.ts_ns) as f64 / 1e6);
                    pass.exec_ms
                        .push(done.ts_ns.saturating_sub(began.ts_ns) as f64 / 1e6);
                    None
                }
                _ => Some(format!("fresh job {id}: no queued or started event")),
            });
        }
    }
    pass.hits = hits.len() as u64;

    match (before, counters(addr)) {
        (Ok((h0, s0)), Ok((h1, s1))) => pass.cache_hit_ratio = ratio(h1 - h0, s1 - s0),
        (Err(e), _) | (_, Err(e)) => out.check(Some(e)),
    }
    pass.peak_rss_mb = crate::peak_rss_mb();
    check_results(out, addr, &fresh, &hits);
    events.close();
    server.shutdown();
    pass
}

/// Every fresh result must equal `execute_job` run in-process on the same spec, and
/// every cache hit must be byte-identical to the fresh result it repeats.
fn check_results(
    out: &mut Outcome,
    addr: SocketAddr,
    fresh: &[(u64, Option<u64>, Instant)],
    hits: &[(u64, usize)],
) {
    let results: Vec<Option<String>> = fresh
        .iter()
        .map(|&(_, id, _)| {
            let (status, body) = get_body(addr, &format!("/v1/jobs/{}/result", id?)).ok()?;
            (status == 200).then_some(body)
        })
        .collect();
    for &(id, index) in hits {
        let hit = get_body(addr, &format!("/v1/jobs/{id}/result")).ok();
        let same =
            matches!((&hit, &results[index]), (Some((200, hit)), Some(first)) if hit == first);
        out.check((!same).then(|| format!("cache hit {id} differs from the fresh result")));
    }
    let checks: Vec<(u64, Option<String>)> = fresh
        .iter()
        .zip(results)
        .filter(|((_, id, _), _)| id.is_some())
        .map(|(&(seed, _, _), result)| (seed, result))
        .collect();
    let per_thread = checks.len().div_ceil(2).max(1);
    let problems: Vec<Option<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = checks
            .chunks(per_thread)
            .map(|chunk| scope.spawn(move || chunk.iter().map(reference_check).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference check thread"))
            .collect()
    });
    for problem in problems {
        out.check(problem);
    }
}

/// Compares one served result with the in-process run of the same submission.
fn reference_check((seed, served): &(u64, Option<String>)) -> Option<String> {
    let Some(served) = served else {
        return Some(format!("fresh seed {seed}: no result"));
    };
    let body = Json::parse(&flow_body(*seed)).expect("benchmark bodies are JSON");
    let Ok(Payload::Flow(job)) = parse_payload(&body) else {
        return Some(format!("fresh seed {seed}: body is not a flow submission"));
    };
    let normalized = |mut record: JobRecord| {
        if let JobOutcome::Success(metrics) = &mut record.outcome {
            metrics.runtime_s = 0.0;
        }
        record
    };
    let expected = normalized(execute_job(&job));
    let got = Json::parse(served)
        .ok()
        .and_then(|v| JobRecord::from_json(&v).ok())
        .map(normalized);
    (got.as_ref() != Some(&expected)).then(|| {
        format!(
            "fresh seed {seed}: served {served} but in-process run gave {}",
            expected.to_json_line()
        )
    })
}

/// Latencies of one request kind, from the spans of a traced pass.
fn latencies(tracer: &Tracer, kind: Kind) -> Vec<f64> {
    tracer
        .named(kind.label())
        .iter()
        .flat_map(|s| s.attrs.iter())
        .filter(|(k, _)| *k == "latency_ms")
        .map(|(_, v)| *v)
        .collect()
}

/// The per-layer metrics of a traced pass.
fn set_layers(out: &mut Outcome, pass: &Pass, tracer: &Tracer) {
    let all = stats::sorted(&pass.latencies_ms());
    out.set_noted(
        "serve.http_p50_ms",
        stats::percentile(&all, 50.0),
        format!("n={}", all.len()),
    );
    out.set_noted(
        "serve.http_p99_ms",
        stats::percentile(&all, 99.0),
        format!("n={}, {} beyond", all.len(), stats::beyond(all.len(), 99.0)),
    );
    let results = stats::sorted(&pass.results_ms);
    out.set_noted(
        "serve.result_p50_ms",
        stats::percentile(&results, 50.0),
        format!("n={}", results.len()),
    );
    let (tail, pct) = stats::tail(&results).unwrap_or((0.0, 0.0));
    out.set_noted(
        "serve.result_tail_ms",
        tail,
        format!("p{pct:.1}, n={}", results.len()),
    );
    let kinds = [
        (Kind::Fresh, "serve.submit_ms_p50", "serve.submit_ms_p99"),
        (Kind::Repeat, "serve.hit_ms_p50", "serve.hit_ms_p99"),
        (Kind::Poll, "serve.poll_ms_p50", "serve.poll_ms_p99"),
        (Kind::Stats, "serve.stats_ms_p50", "serve.stats_ms_p99"),
        (
            Kind::Metrics,
            "serve.metrics_ms_p50",
            "serve.metrics_ms_p99",
        ),
    ];
    for (kind, p50, p99) in kinds {
        let sorted = stats::sorted(&latencies(tracer, kind));
        let n = sorted.len();
        out.set_noted(p50, stats::percentile(&sorted, 50.0), format!("n={n}"));
        out.set_noted(
            p99,
            stats::percentile(&sorted, 99.0),
            format!("n={n}, {} beyond", stats::beyond(n, 99.0)),
        );
    }
    out.set_noted(
        "serve.cache_hit_ratio",
        pass.cache_hit_ratio,
        format!("{} hits", pass.hits),
    );
    out.set_noted(
        "serve.queue_wait_ms_p50",
        stats::median(&pass.queue_wait_ms),
        format!("n={}", pass.queue_wait_ms.len()),
    );
    out.set_noted(
        "serve.exec_ms_p50",
        stats::median(&pass.exec_ms),
        format!("n={}", pass.exec_ms.len()),
    );
    out.set("serve.refused", pass.refused as f64);
    out.set("serve.errors", pass.errors as f64);
    let lags = stats::sorted(&pass.samples.iter().map(|s| s.lag_ms).collect::<Vec<_>>());
    out.set_noted(
        "gen.lag_ms_p99",
        stats::percentile(&lags, 99.0),
        format!("n={}", lags.len()),
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let window_ns = |seconds: f64| (seconds * 1e9) as u64;
    if args.trace {
        let schedule = serve_schedule(args.seed, window_ns(args.seconds / 2.0));
        let Some((server, _)) = set_up(&mut out, args, "untraced") else {
            return out;
        };
        let untraced = run_pass(&mut out, server, &schedule, &Tracer::new(false));
        let Some((server, _)) = set_up(&mut out, args, "traced") else {
            return out;
        };
        let tracer = Tracer::new(true);
        let steps_before = transient_steps();
        let traced = run_pass(&mut out, server, &schedule, &tracer);
        set_layers(&mut out, &traced, &tracer);
        out.set(
            "thermal.transient_steps",
            (transient_steps() - steps_before) as f64,
        );
        // The spans wrap each request, so their cost shows in the request latency;
        // the window's wall time is fixed by the schedule and cannot show it.
        out.set_noted(
            "obs.trace_overhead_ratio",
            ratio(
                stats::median(&traced.latencies_ms()),
                stats::median(&untraced.latencies_ms()),
            ) - 1.0,
            "median request latency, traced / untraced".into(),
        );
        return out;
    }
    let schedule = serve_schedule(args.seed, window_ns(args.seconds));
    let Some((server, setup_s)) = set_up(&mut out, args, "run") else {
        return out;
    };
    let pass = run_pass(&mut out, server, &schedule, &Tracer::new(false));
    let requests = pass.latencies_ms();
    out.set_noted("setup_s", setup_s, format!("median of {SETUP_REPEATS}"));
    out.set_noted(
        "peak_rss_mb",
        pass.peak_rss_mb,
        "before the in-process reference runs".into(),
    );
    // The window's wall time is set by the schedule, so the rate is taken over the
    // evaluation worker's busy time: started → finished, from the server's events.
    let busy_s = pass.exec_ms.iter().sum::<f64>() / 1e3;
    out.set_noted(
        "jobs_per_s",
        ratio(pass.exec_ms.len() as f64, busy_s),
        format!(
            "{} fresh jobs over {busy_s:.3} s of worker busy time",
            pass.exec_ms.len()
        ),
    );
    out.set_noted(
        "result_ms",
        mean(&pass.results_ms),
        format!("submit to terminal event, n={}", pass.results_ms.len()),
    );
    out.set_noted(
        "request_p50_ms",
        stats::median(&requests),
        format!("every HTTP request, n={}", requests.len()),
    );
    out
}
