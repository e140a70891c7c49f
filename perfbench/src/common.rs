//! Pieces every workload shares: the fabric under test, starting-store
//! copies, repeated set-up, `stats` work counters, response checks and
//! the host reference loop.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use oa_router::{Fabric, HashRing, DEFAULT_VNODES};
use oa_serve::Json;

/// Shards in the fabric under test.
pub const SHARDS: u32 = 2;
/// Set-ups timed before the load, and as many again after it.
const SETUP_REPS: usize = 8;
/// The set-up repetitions before the load, and those after it.
pub const BEFORE_LOAD: Range<usize> = 0..SETUP_REPS;
pub const AFTER_LOAD: Range<usize> = SETUP_REPS..2 * SETUP_REPS;

/// The in-process fabric: 2 shards with one worker each (the host has two
/// cores) behind one router, stores under `store_dir/shard<i>/`.
pub fn spawn_fabric(store_dir: &Path) -> Result<Fabric, String> {
    Fabric::spawn_with(SHARDS, store_dir, |_| {}, |shard| shard.workers = 1)
        .map_err(|e| format!("fabric spawn: {e}"))
}

/// The ring the router places keys with (default parameters).
pub fn ring() -> HashRing {
    HashRing::new(SHARDS, DEFAULT_VNODES)
}

pub fn shard_log(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard{shard}")).join("results.log")
}

fn copy_file(from: &Path, to: &Path) -> Result<(), String> {
    if let Some(parent) = to.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    fs::copy(from, to).map_err(|e| format!("copy {}: {e}", from.display()))?;
    Ok(())
}

/// Gives every shard the starting log prepared at shard 0.
pub fn replicate_shard0(dir: &Path) -> Result<(), String> {
    for shard in 1..SHARDS {
        copy_file(&shard_log(dir, 0), &shard_log(dir, shard))?;
    }
    Ok(())
}

/// Copies every shard's starting log from `from` into `to`.
pub fn copy_stores(from: &Path, to: &Path) -> Result<(), String> {
    for shard in 0..SHARDS {
        copy_file(&shard_log(from, shard), &shard_log(to, shard))?;
    }
    Ok(())
}

/// Runs set-up once per repetition in `reps` and keeps the last
/// instance. Each repetition first runs `before` untimed (fresh store
/// copies, so every set-up does identical work), then times `start`; the
/// previous instance is stopped before the next starts. Workloads call it
/// before the load and again after it (or between its parts), so the
/// set-ups of one run sample the same host phases as its load.
pub fn repeated_setup<T>(
    reps: Range<usize>,
    mut before: impl FnMut(usize) -> Result<(), String>,
    mut start: impl FnMut(usize) -> Result<T, String>,
    mut stop: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(reps.len());
    let mut last = None;
    for rep in reps {
        if let Some(previous) = last.take() {
            stop(previous);
        }
        before(rep)?;
        let started = Instant::now();
        let instance = start(rep)?;
        seconds.push(started.elapsed().as_secs_f64());
        last = Some(instance);
    }
    let last = last.ok_or("no set-up repetitions")?;
    Ok((last, seconds))
}

pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

pub fn us_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// Whether a response line is `"ok":true`.
pub fn is_ok(response: &str) -> bool {
    Json::parse(response)
        .ok()
        .and_then(|j| j.get("ok").and_then(Json::as_bool))
        == Some(true)
}

/// The raw `result` bytes of an ok response `{"id":..,"ok":true,"result":R}`.
pub fn result_bytes(response: &str) -> Option<&str> {
    const MARK: &str = ",\"ok\":true,\"result\":";
    let at = response.find(MARK)? + MARK.len();
    response.get(at..response.len().checked_sub(1)?)
}

/// The parsed `result` object of a `stats` response.
pub fn stats_result(response: &str) -> Result<Json, String> {
    let parsed = Json::parse(response).map_err(|e| format!("stats response: {e}"))?;
    parsed
        .get("result")
        .cloned()
        .ok_or_else(|| format!("stats failed: {response}"))
}

/// A numeric field of a `stats` result, by path.
pub fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut at = Some(stats);
    for key in path {
        at = at.and_then(|j| j.get(key));
    }
    at.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The exact work counters of a `stats` result: everything except the
/// wall-clock `micros` fields, canonically encoded.
pub fn work_counters(stats: &Json) -> String {
    fn strip(v: &Json) -> Json {
        match v {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != "micros")
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(stats)
        .encode()
        .unwrap_or_else(|e| format!("<unencodable: {e}>"))
}

/// `part / (part + rest)`, or 0 for an empty total.
pub fn ratio(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

/// Identity of the code under test: FNV-1a over this executable's bytes.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Ok(format!("{hash:016x}"))
}

/// Compares a run's work counters with the first run of the same
/// `(workload, seed, seconds)` by the same build in this checkout. The
/// program does deterministic work per seed, so any difference within
/// one build is a failed check, never noise; another build (a code
/// change) starts its own record.
pub fn check_counters(key: &str, counters: &str) -> Result<(), String> {
    let dir = Path::new(".bench_work").join("counters");
    fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let key = format!("{key}-{}", build_id()?);
    let path = dir.join(format!("{key}.txt"));
    match fs::read_to_string(&path) {
        Ok(previous) if previous == counters => Ok(()),
        Ok(previous) => Err(format!(
            "work counters differ from an earlier run of {key}:\n  was {previous}\n  now {counters}"
        )),
        Err(_) => fs::write(&path, counters).map_err(|e| format!("write {}: {e}", path.display())),
    }
}

/// A fixed integer/float loop that uses no workspace code, timed in ms.
/// Printed before and after each run so spread can be attributed to host
/// phases rather than to the program.
pub fn host_ref_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
    }
    std::hint::black_box(acc);
    ms_since(started)
}
