//! Client-side pieces: a blocking [`ServeClient`] over the frame
//! protocol, and the interactive-shell line parser shared by the
//! `serve_client` binary and the `repl` example (so the two front-ends
//! accept the same command language).

use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{read_frame, write_frame, Priority, Request, Response};

/// Pretty-print engine counter rows (a [`Response::Stats`] payload, or
/// any `(name, value)` list) grouped by subsystem, for the `:stats`
/// shell command. Counters the grouping does not know — future additions,
/// per-lane rows beyond the fixed set — land in a trailing `other`
/// section, so the shell never hides a counter.
pub fn format_stats(rows: &[(String, u64)]) -> String {
    const GROUPS: &[(&str, &[&str])] = &[
        (
            "admission",
            &["submitted", "busy_rejected", "batches", "failed"],
        ),
        (
            "execution",
            &[
                "reads",
                "executed",
                "read_execs",
                "writes_applied",
                "concurrent_write_batches",
            ],
        ),
        ("fusion", &["fused", "inflight_joins"]),
        (
            "views",
            &["views_installed", "delta_pages", "view_reads_served"],
        ),
        (
            "plan cache",
            &[
                "plan_cache_hits",
                "plan_cache_misses",
                "parses",
                "cache_evictions_partial",
                "stats_gathers",
            ],
        ),
        ("transport", &["bytes_in", "bytes_out"]),
    ];
    let find = |key: &str| rows.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    let mut out = String::new();
    let mut shown: Vec<&str> = Vec::new();
    for (title, keys) in GROUPS {
        let present: Vec<(&str, u64)> = keys
            .iter()
            .filter_map(|k| find(k).map(|v| (*k, v)))
            .collect();
        if present.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{title}:");
        for (k, v) in present {
            shown.push(k);
            let _ = writeln!(out, "  {k:>18} {v}");
        }
    }
    // Per-lane executions, one line per lane, under their own heading.
    if let Some(lanes) = find("lanes") {
        let _ = writeln!(out, "lanes: {lanes}");
        shown.push("lanes");
        for (k, v) in rows {
            if k.starts_with("lane") && k.ends_with("_execs") {
                shown.push(k.as_str());
                let _ = writeln!(out, "  {k:>18} {v}");
            }
        }
    }
    let rest: Vec<_> = rows
        .iter()
        .filter(|(k, _)| !shown.contains(&k.as_str()))
        .collect();
    if !rest.is_empty() {
        let _ = writeln!(out, "other:");
        for (k, v) in rest {
            let _ = writeln!(out, "  {k:>18} {v}");
        }
    }
    out.truncate(out.trim_end().len());
    out
}

/// One parsed line of an interactive shell: either a `:`-prefixed meta
/// command or raw query text. Both the local REPL example and the remote
/// serve client parse lines through here; each front-end handles the
/// commands that make sense for it and reports the rest as unsupported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplCommand {
    /// Blank line; show a fresh prompt.
    Empty,
    /// `:quit` / `:q`.
    Quit,
    /// `:help`.
    Help,
    /// `:relations`.
    Relations,
    /// `:stats` — server counters in the serve client, local session
    /// counters in the REPL (both render via [`crate::format_stats`]).
    Stats,
    /// `:optimize on|off`.
    Optimize(bool),
    /// `:engine <name>` — the name is validated by the front-end, which
    /// knows its available engines.
    Engine(String),
    /// `:priority high|normal|low` (serve client).
    Priority(Priority),
    /// `:install <name> <query>` — materialize `query` as a standing
    /// view named `name` and maintain it incrementally (serve client).
    Install(String, String),
    /// `:drop <name>` — deregister a standing view (serve client).
    Drop(String),
    /// `:view <name>` — read a maintained view's current result without
    /// re-executing its defining query (serve client).
    View(String),
    /// Anything not starting with `:` is query text for the s-expression
    /// parser.
    Query(String),
}

impl ReplCommand {
    /// Parse one input line.
    ///
    /// # Errors
    /// Returns a printable message for a malformed or unknown meta
    /// command (queries are never rejected here — the query parser owns
    /// that grammar).
    pub fn parse(line: &str) -> Result<ReplCommand, String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(ReplCommand::Empty);
        }
        if !line.starts_with(':') {
            return Ok(ReplCommand::Query(line.to_string()));
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match (cmd, rest) {
            (":quit" | ":q", "") => Ok(ReplCommand::Quit),
            (":help", "") => Ok(ReplCommand::Help),
            (":relations", "") => Ok(ReplCommand::Relations),
            (":stats", "") => Ok(ReplCommand::Stats),
            (":optimize", "on") => Ok(ReplCommand::Optimize(true)),
            (":optimize", "off") => Ok(ReplCommand::Optimize(false)),
            (":optimize", other) => Err(format!("`:optimize` wants on|off, got `{other}`")),
            (":engine", "") => Err("`:engine` wants a name".into()),
            (":engine", name) => Ok(ReplCommand::Engine(name.to_string())),
            (":priority", p) => p
                .parse::<Priority>()
                .map(ReplCommand::Priority)
                .map_err(|e| e.to_string()),
            (":install", rest) => match rest.split_once(char::is_whitespace) {
                Some((name, query)) if !query.trim().is_empty() => Ok(ReplCommand::Install(
                    name.to_string(),
                    query.trim().to_string(),
                )),
                _ => Err("`:install` wants a name and a query".into()),
            },
            (":drop", "") => Err("`:drop` wants a view name".into()),
            (":drop", name) => Ok(ReplCommand::Drop(name.to_string())),
            (":view", "") => Err("`:view` wants a view name".into()),
            (":view", name) => Ok(ReplCommand::View(name.to_string())),
            (other, _) => Err(format!("unknown command `{other}` (try :help)")),
        }
    }
}

/// A blocking client connection to a df-serve instance.
///
/// Requests can be issued call-and-response ([`ServeClient::request`]) or
/// pipelined ([`ServeClient::send`] several, then [`ServeClient::recv`]
/// each response) — the open-loop load generator relies on the latter,
/// matching responses to requests by id since the engine reorders across
/// priority classes.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Connect to a server.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(ServeClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
        })
    }

    /// Send one request frame without waiting for the response.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.writer, &request.encode())
    }

    /// Build a query request with the next pipelined id; pair with
    /// [`ServeClient::send`] + [`ServeClient::recv`].
    pub fn query_request(&mut self, text: &str, priority: Priority, optimize: bool) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        Request::Query {
            id,
            priority,
            optimize,
            text: text.to_string(),
        }
    }

    /// Build a read-view request with the next pipelined id.
    pub fn read_view_request(&mut self, name: &str) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        Request::ReadView {
            id,
            name: name.to_string(),
        }
    }

    /// Read the next response frame.
    ///
    /// # Errors
    /// Socket failures, a server that hung up (`UnexpectedEof`), or an
    /// undecodable frame (`InvalidData`).
    pub fn recv(&mut self) -> io::Result<Response> {
        match read_frame(&mut self.reader)? {
            Some(payload) => Response::decode(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Call-and-response: send `request`, wait for one response.
    ///
    /// # Errors
    /// As [`ServeClient::send`] and [`ServeClient::recv`].
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Submit one query and wait for its result or error.
    ///
    /// # Errors
    /// As [`ServeClient::request`].
    pub fn query(
        &mut self,
        text: &str,
        priority: Priority,
        optimize: bool,
    ) -> io::Result<Response> {
        let request = self.query_request(text, priority, optimize);
        self.request(&request)
    }

    /// Install a standing view and wait for the acknowledgement.
    ///
    /// # Errors
    /// As [`ServeClient::request`].
    pub fn install_view(&mut self, name: &str, text: &str) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::InstallView {
            id,
            name: name.to_string(),
            text: text.to_string(),
        };
        self.request(&request)
    }

    /// Drop a standing view and wait for the acknowledgement.
    ///
    /// # Errors
    /// As [`ServeClient::request`].
    pub fn drop_view(&mut self, name: &str) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::DropView {
            id,
            name: name.to_string(),
        };
        self.request(&request)
    }

    /// Read a maintained view's current result.
    ///
    /// # Errors
    /// As [`ServeClient::request`].
    pub fn read_view(&mut self, name: &str) -> io::Result<Response> {
        let request = self.read_view_request(name);
        self.request(&request)
    }
}

#[cfg(test)]
mod tests {
    use super::{format_stats, ReplCommand};

    #[test]
    fn view_commands_parse() {
        assert_eq!(
            ReplCommand::parse(":install v (restrict (scan r00) (< val 5))"),
            Ok(ReplCommand::Install(
                "v".into(),
                "(restrict (scan r00) (< val 5))".into()
            ))
        );
        assert_eq!(
            ReplCommand::parse(":drop v"),
            Ok(ReplCommand::Drop("v".into()))
        );
        assert_eq!(
            ReplCommand::parse(":view v"),
            Ok(ReplCommand::View("v".into()))
        );
        for bad in [":install", ":install v", ":drop", ":view"] {
            assert!(ReplCommand::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn format_stats_groups_and_keeps_unknown_counters() {
        let rows: Vec<(String, u64)> = [
            ("submitted", 10),
            ("fused", 3),
            ("plan_cache_hits", 7),
            ("stats_gathers", 3),
            ("lanes", 2),
            ("lane0_execs", 4),
            ("lane1_execs", 2),
            ("mystery_counter", 42),
            // A counter this build retired (an older server still sends
            // it) is shown like any other unknown one.
            ("groups", 5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let text = format_stats(&rows);
        for section in ["admission:", "fusion:", "plan cache:", "lanes: 2", "other:"] {
            assert!(text.contains(section), "missing `{section}` in:\n{text}");
        }
        for row in ["submitted 10", "lane1_execs 2", "mystery_counter 42"] {
            assert!(text.contains(row), "missing `{row}` in:\n{text}");
        }
        let other = &text[text.find("other:").expect("other section")..];
        assert!(
            other.contains("groups 5"),
            "retired counter hidden:\n{text}"
        );
        let plan_cache = &text[text.find("plan cache:").expect("plan cache section")..];
        assert!(
            plan_cache.contains("stats_gathers 3") && !other.contains("stats_gathers"),
            "stats_gathers belongs to the plan cache group:\n{text}"
        );
    }
}
