// Fixture: a single-shot socket read while a lock guard is live. A
// blocking socket parks the thread until the peer sends, and every
// other user of the lock waits with it, so lock_across_blocking must
// flag the `.read()` (line 15).
pub struct Link {
    stream: TcpStream,
    routes: Mutex<Routes>,
}

impl Link {
    pub fn pump(&mut self, buf: &mut [u8]) -> usize {
        let routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        let ready = routes.is_ready();
        let n = if ready {
            self.stream.read(buf).unwrap_or(0)
        } else {
            0
        };
        drop(routes);
        n
    }
}
