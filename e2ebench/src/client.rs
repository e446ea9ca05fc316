//! A minimal blocking HTTP/1.1 client over one keep-alive connection, and
//! the server child process it talks to.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// How long one response may take before the request counts as timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A status code and body.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(&self) -> Option<serde_json::Value> {
        serde_json::from_slice(&self.body).ok()
    }
}

/// One keep-alive connection. A connection the server closed is reopened
/// on the next request; a request is never retried.
pub struct Conn {
    addr: SocketAddr,
    live: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, live: None }
    }

    fn open(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.live.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.live = Some((stream, reader));
        }
        Ok(self.live.as_mut().expect("opened above"))
    }

    /// Sends `raw` (a complete request) and reads the response.
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<Response> {
        let result = self.exchange(raw);
        if !matches!(&result, Ok((_, true))) {
            self.live = None;
        }
        result.map(|(r, _)| r)
    }

    fn exchange(&mut self, raw: &[u8]) -> std::io::Result<(Response, bool)> {
        let (stream, reader) = self.open()?;
        stream.write_all(raw)?;
        read_response(reader)
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send(&crate::gen::http_bytes("GET", path, b""))
    }
}

/// Reads one response; the flag says whether the connection stays open.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<(Response, bool)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            if k == "content-length" {
                len = v.parse().map_err(|_| bad("bad content-length"))?;
            } else if k == "connection" && v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            }
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok((Response { status, body }, keep_alive))
}

/// `relrank serve` running as a child process. Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts this executable in server mode (`__relrank serve ...`, the
    /// `relrank` command line) on an ephemeral port and waits until it
    /// reports its address.
    pub fn spawn(workers: usize, max_expensive: usize, data_dir: Option<&str>) -> Server {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let mut cmd = Command::new(exe);
        cmd.args(["__relrank", "serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .args(["--max-expensive", &max_expensive.to_string()]);
        if let Some(dir) = data_dir {
            cmd.args(["--data-dir", dir]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the server process");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.split("listening on http://").nth(1) {
                addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the server exited before it listened");
        };
        // Keep draining so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines {});
        Server { child, addr, drain: Some(drain) }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    /// Processor time the server process has used so far, user and
    /// system, all threads, in seconds.
    pub fn cpu_s(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        cpu_s_from_stat(&stat)
    }

    /// Kills the process (SIGKILL: nothing is flushed on the way out) and
    /// waits for it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds. The fields
/// are counted after the parenthesized command name, which may hold
/// spaces; the kernel reports them in `USER_HZ` (100) ticks, scaled so
/// their sum is the precisely accounted run time.
fn cpu_s_from_stat(stat: &str) -> f64 {
    const USER_HZ: f64 = 100.0;
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // Field 14 (utime) and 15 (stime); the first after ')' is field 3.
    (tick(11) + tick(12)) / USER_HZ
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_keep_alive_and_close_responses() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\
                    connection: keep-alive\r\n\r\n{}HTTP/1.1 429 Too Many Requests\r\n\
                    content-length: 0\r\nconnection: close\r\n\r\n";
        let mut r = std::io::Cursor::new(&raw[..]);
        let (a, keep) = read_response(&mut r).unwrap();
        assert_eq!((a.status, a.body.as_slice(), keep), (200, &b"{}"[..], true));
        let (b, keep) = read_response(&mut r).unwrap();
        assert_eq!((b.status, b.body.len(), keep), (429, 0, false));
        assert!(read_response(&mut r).is_err());
    }

    #[test]
    fn reads_cpu_time_past_a_command_name_with_spaces() {
        let stat = "4242 (e2e (bench) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 66 0 0 20 0 \
                    9 0 5000 751696 8522 18446744073709551615";
        assert!((cpu_s_from_stat(stat) - 13.0).abs() < 1e-9);
        assert_eq!(cpu_s_from_stat(""), 0.0);
    }
}
