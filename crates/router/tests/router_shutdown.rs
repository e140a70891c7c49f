//! `Router::shutdown` returns and joins every router thread while an
//! idle client is still connected and one shard is dead (its link thread
//! is backing off between failed dials).
//!
//! Alone in its own test binary, so on Linux the process's thread list
//! shows exactly this router's threads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use oa_fault::Faults;
use oa_router::fabric::shard_config;
use oa_router::{start, RouterConfig};
use oa_serve::serve;

/// Names of this process's live threads that belong to a router (all
/// router threads are named `oa-router-…`). Linux only; elsewhere the
/// check is skipped.
fn router_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .filter(|name| name.starts_with("oa-router"))
        .collect()
}

#[test]
fn shutdown_joins_every_thread_with_an_idle_client_and_a_dead_shard() {
    let dir = std::env::temp_dir().join(format!("oa_router_shutdown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = serve(shard_config("127.0.0.1:0", &dir, 0, 2, Faults::none())).expect("shard");
    // A dead shard: a port that was bound once and now refuses.
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let router =
        start(RouterConfig::loopback(vec![live.addr().to_string(), dead])).expect("router starts");

    // An idle client: one answered request, then silence.
    let mut idle = TcpStream::connect(router.addr()).expect("connect");
    idle.write_all(b"{\"id\":1,\"op\":\"shard_map\"}\n")
        .expect("send");
    let mut reader = BufReader::new(idle.try_clone().expect("clone"));
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("answer");
    assert!(answer.contains("\"ok\":true"), "{answer}");
    assert!(!router_threads().is_empty() || !cfg!(target_os = "linux"));

    let (done_tx, done_rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        router.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("Router::shutdown must return");
    stopper.join().expect("shutdown thread");

    // The idle client's connection was closed, not abandoned.
    let mut rest = Vec::new();
    let closed = reader.read_to_end(&mut rest).map(|_| rest.is_empty());
    assert!(closed.unwrap_or(true), "unexpected bytes after shutdown");

    // Joined threads leave the task list as they finish exiting.
    let mut left = router_threads();
    for _ in 0..200 {
        if left.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        left = router_threads();
    }
    assert!(left.is_empty(), "router threads still alive: {left:?}");
    live.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
