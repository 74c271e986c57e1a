//! The `kreach serve` child process: spawn, readiness, scrapes, drain and
//! `kill -9`. Every child is killed and reaped when its handle drops, so no
//! server outlives the benchmark.

use kreach_datasets::PromScrape;
use kreach_server::client::{BlockingClient, HttpResponse};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::channel;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a child may take from spawn to its first healthy `/healthz`.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// Socket timeout for every request the benchmark sends.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How to start one server: the binary and its `serve` arguments.
#[derive(Debug, Clone)]
pub struct ServeCmd {
    /// Path of the `kreach` binary.
    pub binary: PathBuf,
    /// Arguments after the binary (`serve …`).
    pub args: Vec<String>,
    /// Where the child's stderr goes.
    pub log: PathBuf,
}

/// A running server child.
pub struct Server {
    child: Child,
    reader: Option<JoinHandle<()>>,
    /// `host:port` the server listens on.
    pub addr: String,
    /// Stdout lines printed before the listening banner (the store's
    /// bootstrap or restore banner).
    pub banner: Vec<String>,
    log: PathBuf,
}

impl Server {
    /// Spawns the child and waits until `/healthz` answers 200. Returns the
    /// server and the time from spawn to that first healthy response.
    pub fn start(cmd: &ServeCmd) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let log = std::fs::File::create(&cmd.log)
            .map_err(|e| format!("cannot create {}: {e}", cmd.log.display()))?;
        let mut child = Command::new(&cmd.binary)
            .args(&cmd.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cmd.binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = channel();
        // Drains stdout for the child's whole life, so it never blocks on a
        // full pipe; lines after start-up have no listener and are dropped.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            reader: Some(reader),
            addr: String::new(),
            banner: Vec::new(),
            log: cmd.log.clone(),
        };
        loop {
            let left = READY_TIMEOUT.saturating_sub(started.elapsed());
            let line = lines
                .recv_timeout(left)
                .map_err(|_| server.failure("exited or timed out before listening"))?;
            if let Some(rest) = line.split("listening on http://").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                break;
            }
            server.banner.push(line);
        }
        while started.elapsed() < READY_TIMEOUT {
            if server.get("/healthz").is_ok_and(|r| r.status == 200) {
                return Ok((server, started.elapsed()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(server.failure("never became healthy"))
    }

    /// An error message carrying the tail of the child's stderr.
    fn failure(&self, what: &str) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        format!(
            "kreach serve {what}; stderr tail: {}",
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        )
    }

    /// A fresh keep-alive connection to the server.
    pub fn connect(&self) -> Result<BlockingClient, String> {
        let client = BlockingClient::connect(&self.addr).map_err(|e| e.to_string())?;
        client.set_timeout(IO_TIMEOUT).map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// One `GET` on a fresh connection.
    pub fn get(&self, target: &str) -> Result<HttpResponse, String> {
        self.connect()?.get(target).map_err(|e| e.to_string())
    }

    /// One `POST` on a fresh connection.
    pub fn post(&self, target: &str, body: &[u8]) -> Result<HttpResponse, String> {
        self.connect()?
            .post(target, body)
            .map_err(|e| e.to_string())
    }

    /// The engine epoch `/healthz` reports.
    pub fn epoch(&self) -> Result<u64, String> {
        let body = self.get("/healthz")?.body_text();
        body.split("\"epoch\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .ok_or_else(|| format!("no epoch in /healthz body {body:?}"))
    }

    /// Scrapes and parses `/metrics`.
    pub fn scrape(&self) -> Result<PromScrape, String> {
        let response = self.get("/metrics")?;
        if response.status != 200 {
            return Err(format!("/metrics returned {}", response.status));
        }
        PromScrape::parse(&response.body_text()).map_err(|e| e.to_string())
    }

    /// Peak resident set of the child (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// `kill -9`: the child gets no chance to checkpoint or drain.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| e.to_string())?;
        self.reap()
    }

    /// `POST /shutdown` and wait for the drain (final checkpoint included)
    /// to finish and the process to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let response = self.post("/shutdown", &[])?;
        if response.status != 202 {
            return Err(format!("/shutdown returned {}", response.status));
        }
        let deadline = Instant::now() + READY_TIMEOUT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                self.reap()?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("drained server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(self.failure("did not exit after /shutdown"))
    }

    fn reap(&mut self) -> Result<(), String> {
        self.child.wait().map_err(|e| e.to_string())?;
        if let Some(reader) = self.reader.take() {
            reader
                .join()
                .map_err(|_| "stdout reader panicked".to_string())?;
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}

/// The `replayed … ops` count from a restore banner (0 when the banner
/// reports none, e.g. a fresh bootstrap or a static server).
pub fn replayed_ops(banner: &[String]) -> u64 {
    banner
        .iter()
        .find_map(|line| {
            let rest = line.split("wal batches / ").nth(1)?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Builds the `kreach` binary from the checkout's sources (a no-op when it
/// is fresh) and returns its path.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "kreach"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building kreach failed ({status})"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against the directory it
    // ran in; joining an absolute one keeps it as is.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let binary = root.join(target).join("release").join("kreach");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_restore_banner() {
        let banner = vec![
            "kreach-store: restored epoch 2980 from d (checkpoint epoch 980, \
             replayed 2000 wal batches / 2000 ops)"
                .to_string(),
        ];
        assert_eq!(replayed_ops(&banner), 2000);
        assert_eq!(
            replayed_ops(&["kreach-store: bootstrapped d".to_string()]),
            0
        );
    }
}
