//! The TCP front end answers store hits on the connection thread and
//! everything else on the worker pool; this differential pins that the
//! split changes no byte and no counter.
//!
//! One connection pipelines a mix of every path — stored evals, fresh
//! evals, malformed lines, an unknown op, `eval_batch`, `size_opt`,
//! `open_session` and `step` — and finishes with `stats`. Sorted by id,
//! the responses must equal [`Service::handle_line`] on a twin service
//! over a copy of the same starting store, and the final `stats`
//! counters must match except `micros` (wall-clock time).

use std::fs;
use std::path::PathBuf;

use oa_circuit::{ParamSpace, Topology};
use oa_fault::Faults;
use oa_serve::{request, serve, Client, Json, ServerConfig, Service};
use oa_store::Store;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "oa_serve_hitpath_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// An in-range parameter vector for `topology`, varied by `salt`.
fn x_for(topology: usize, salt: usize) -> Vec<f64> {
    let t = Topology::from_index(topology).expect("test topology in range");
    let dim = ParamSpace::for_topology(&t).dim();
    (0..dim)
        .map(|j| 0.2 + 0.05 * ((j + salt) % 11) as f64)
        .collect()
}

/// Zeroes every `"micros":<number>` (the only wall-clock field).
fn canonicalize(line: &str) -> String {
    let marker = "\"micros\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let (head, tail) = rest.split_at(at + marker.len());
        out.push_str(head);
        out.push('0');
        let digits = tail
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(tail.len());
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Responses keyed by their `id` text, sorted.
fn by_id(responses: &[String]) -> Vec<(String, String)> {
    let mut keyed: Vec<(String, String)> = responses
        .iter()
        .map(|r| {
            let id = Json::parse(r)
                .ok()
                .and_then(|v| v.get("id").and_then(|id| id.encode().ok()))
                .unwrap_or_else(|| "?".to_owned());
            (id, canonicalize(r))
        })
        .collect();
    keyed.sort();
    keyed
}

#[test]
fn pipelined_mix_matches_handle_line_on_a_twin_store() {
    let dir = temp_dir("mix");
    let _ = fs::remove_dir_all(&dir);
    let served_log = dir.join("served").join("results.log");
    let twin_log = dir.join("twin").join("results.log");

    // The starting store: three evals already answered once.
    let stored: Vec<(usize, Vec<f64>)> = [4usize, 97, 1031]
        .into_iter()
        .map(|t| (t, x_for(t, 1)))
        .collect();
    {
        let seed = Service::new(Store::open(&served_log).expect("store opens"));
        for (i, (t, x)) in stored.iter().enumerate() {
            let response = seed.handle_line(&request::eval(900 + i as u64, "S-1", *t, x));
            assert!(response.contains("\"ok\":true"), "{response}");
        }
    }
    fs::create_dir_all(twin_log.parent().unwrap()).unwrap();
    fs::copy(&served_log, &twin_log).expect("store copies");

    let mut lines = Vec::new();
    for (i, (t, x)) in stored.iter().enumerate() {
        lines.push(request::eval(1 + i as u64, "S-1", *t, x));
    }
    for (i, t) in [17_001usize, 4_444].into_iter().enumerate() {
        lines.push(request::eval(10 + i as u64, "S-2", t, &x_for(t, 2)));
    }
    lines.push("not json at all".to_owned());
    lines.push(r#"{"id":20}"#.to_owned());
    lines.push(r#"{"id":21,"op":"eval","spec":"S-9","topology":4,"x":[0.5]}"#.to_owned());
    lines.push(r#"{"id":22,"op":"eval","spec":"S-1","topology":4,"x":[0.5]}"#.to_owned());
    lines.push(r#"{"id":23,"op":"teleport"}"#.to_owned());
    let batch = vec![stored[0].clone(), (250usize, x_for(250, 3))];
    lines.push(request::eval_batch(30, "S-1", &batch));
    lines.push(request::size_opt(31, "S-1", 4, 7, 3, 2));
    lines.push(request::open_session(40, 77, &["S-1"], 5, 2, 4, 2, 1));
    lines.push(request::step(41, 77));
    lines.push(request::step(42, 77));
    lines.push(request::stats(50));

    // One pool worker keeps the pool's jobs in submission order, so the
    // session's open runs before its steps and `stats` runs last, after
    // every hit the connection thread answered before submitting it.
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue: 64,
        store_path: served_log,
        faults: Faults::none(),
        shard: None,
        session_limit: oa_serve::DEFAULT_SESSION_LIMIT,
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let served = client.pipeline(&lines).expect("pipeline");
    drop(client);
    server.shutdown();

    let twin = Service::new(Store::open(&twin_log).expect("twin store opens"));
    let direct: Vec<String> = lines.iter().map(|l| twin.handle_line(l)).collect();

    assert_eq!(served.len(), lines.len());
    assert_eq!(by_id(&served), by_id(&direct));
    // Each store probe is counted once: five evals, the wrong-dimension
    // eval (it reaches its key before failing), two batch items, the
    // size_opt and one sizing run per step. The stored evals and the
    // stored batch item are among the hits.
    let stats = served
        .iter()
        .find(|r| r.starts_with("{\"id\":50,"))
        .expect("stats answered");
    let result = Json::parse(stats).expect("stats parses");
    let store = result.get("result").and_then(|r| r.get("store")).unwrap();
    let count = |field: &str| store.get(field).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(count("hits") + count("misses"), 11, "{stats}");
    assert!(count("hits") >= 4, "{stats}");
    let _ = fs::remove_dir_all(&dir);
}
