//! The load generator's side of the `ses-server` line protocol, written
//! here rather than taken from the server crate so the benchmark does
//! not measure the program with its own client code.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use ses_event::{Relation, Value};

/// Q1's schema as the server takes it.
pub const Q1_SCHEMA: &str = "ID:int,L:str,V:float,U:str";
/// The bank workload's schema as the server takes it.
pub const BANK_SCHEMA: &str = "TYPE:str,ID:int";

/// Events per `batch` line the producer sends.
pub const BATCH: usize = 256;

/// A `ses-server` process started by the benchmark. Dropping it kills
/// the process and waits for it.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl ServerProc {
    /// Starts `bin` for Q1's schema, memory-only or durable under
    /// `checkpoint`, and waits for its `listening on` line.
    pub fn start(bin: &Path, checkpoint: Option<&Path>) -> Result<ServerProc, String> {
        ServerProc::start_with(bin, Q1_SCHEMA, "hour", checkpoint)
    }

    /// Starts `bin` for `schema` (`NAME:TYPE,…`) with queries read in
    /// `tick` units.
    pub fn start_with(
        bin: &Path,
        schema: &str,
        tick: &str,
        checkpoint: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--schema",
            schema,
            "--tick",
            tick,
            "--listen",
            "127.0.0.1:0",
        ]);
        if let Some(dir) = checkpoint {
            cmd.arg("--checkpoint").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let status = child.wait().map_err(|e| e.to_string())?;
                return Err(format!("ses-server exited before listening ({status})"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr.to_string();
                return Ok(ServerProc {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the server with SIGKILL and waits for it.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| e.to_string())?;
        self.child.wait().map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A path of the checkout-local scratch area for durable servers.
pub fn scratch_dir(root: &Path, name: &str) -> PathBuf {
    root.join(".bench_run")
        .join(format!("{name}-{}", std::process::id()))
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr` with Nagle's algorithm off.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Writes one pre-rendered line (with its newline).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one line; `None` at end of stream.
    pub fn read_line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line)),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends a request and reads lines until the reply for `op`,
    /// returning it and the error replies read on the way.
    pub fn request(&mut self, line: &str, op: &str) -> Result<(String, u64), String> {
        self.send(line)?;
        self.reply(op)
    }

    /// Reads lines until the reply for `op`, counting `"ok":false`
    /// replies for other verbs (refused events) on the way.
    pub fn reply(&mut self, op: &str) -> Result<(String, u64), String> {
        let mut errors = 0;
        loop {
            let line = self
                .read_line()?
                .ok_or_else(|| format!("connection closed while waiting for `{op}`"))?;
            if str_field(&line, "op") == Some(op) {
                if line.contains("\"ok\":false") {
                    return Err(format!("`{op}` failed: {}", line.trim()));
                }
                return Ok((line, errors));
            }
            if line.contains("\"ok\":false") {
                errors += 1;
            }
        }
    }

    /// Sends `ping` and waits for the reply, returning it.
    pub fn ping(&mut self) -> Result<String, String> {
        Ok(self.request("{\"op\":\"ping\"}\n", "pong")?.0)
    }

    /// Subscribes `name` to `query` from `cursor`; returns the reply.
    pub fn subscribe(&mut self, name: &str, query: &str, cursor: u64) -> Result<String, String> {
        let line = format!(
            "{{\"op\":\"subscribe\",\"name\":{},\"query\":{},\"cursor\":{cursor}}}\n",
            json_str(name),
            json_str(query)
        );
        Ok(self.request(&line, "subscribe")?.0)
    }

    /// Shuts the socket down both ways, which ends a reader blocked on
    /// a clone of it.
    pub fn close(&self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }

    /// A clone of the socket for a second thread.
    pub fn try_clone(&self) -> Result<Conn, String> {
        let s = self.writer.try_clone().map_err(|e| e.to_string())?;
        let w = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer: w,
        })
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The raw text after `"key":` in a flat JSON line.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(&line[at..])
}

/// The sum of every `key` field of a line (per-pattern counters).
pub fn u64_field_sum(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    line.match_indices(&pat)
        .filter_map(|(at, _)| u64_field(&line[at..], key))
        .sum()
}

/// An unsigned integer field of a reply line.
pub fn u64_field(line: &str, key: &str) -> Option<u64> {
    let rest = raw_field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A string field without escapes (op names, rendered matches).
pub fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = raw_field(line, key)?.strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

fn value_json(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => out.push_str(&i.to_string()),
        // `{:?}` keeps a decimal point, so the value stays a float.
        Value::Float(x) => out.push_str(&format!("{x:?}")),
        Value::Str(s) => out.push_str(&json_str(s)),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Renders the first `events` events of `rel` as `batch` lines of
/// [`BATCH`] events each.
pub fn batch_lines(rel: &Relation, events: usize) -> Vec<String> {
    rel.events()[..events.min(rel.len())]
        .chunks(BATCH)
        .map(|chunk| {
            let mut line = String::from("{\"op\":\"batch\",\"events\":[");
            for (i, e) in chunk.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('[');
                line.push_str(&e.ts().ticks().to_string());
                line.push_str(",[");
                for (j, v) in e.values().iter().enumerate() {
                    if j > 0 {
                        line.push(',');
                    }
                    value_json(v, &mut line);
                }
                line.push_str("]]");
            }
            line.push_str("]}\n");
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_found() {
        let l = r#"{"ok":true,"op":"sync","accepted":12,"shed":0,"match":"{c/e1, b/e2}"}"#;
        assert_eq!(u64_field(l, "accepted"), Some(12));
        assert_eq!(str_field(l, "op"), Some("sync"));
        assert_eq!(str_field(l, "match"), Some("{c/e1, b/e2}"));
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
