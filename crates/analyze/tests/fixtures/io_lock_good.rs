// Fixture twin of io_lock_bad.rs: the same read under the same guard,
// but from a `File` — bounded local io that cannot wait on a peer — so
// lock_across_blocking must stay silent.
pub struct Link {
    file: File,
    routes: Mutex<Routes>,
}

impl Link {
    pub fn pump(&mut self, buf: &mut [u8]) -> usize {
        let routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        let ready = routes.is_ready();
        let n = if ready {
            self.file.read(buf).unwrap_or(0)
        } else {
            0
        };
        drop(routes);
        n
    }
}
